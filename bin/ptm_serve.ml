(* Command-line front end for the sharded persistent KV service
   (lib/kvserve): drive a deterministic client fleet through the full
   codec → router → batch → commit path on simulated persistent
   memory, optionally pulling the plug mid-run to exercise restart
   recovery.

     ptm_serve                                   # default run, summary
     ptm_serve --model pdram-lite --shards 8
     ptm_serve --crash-at 100000                 # crash + recover
     ptm_serve --metrics                         # JSONL service metrics
     ptm_serve --smoke                           # self-check, exit 0/1

   --smoke runs the end-to-end checks the verify workflow relies on:
   a crash + restart + recovery pass with every request answered
   exactly once, and a save-image / load-image round-trip including
   the torn-image (Corrupt_image) negative path. *)

module Config = Memsim.Config
module Sim = Memsim.Sim
module Ptm = Pstm.Ptm
module Service = Kvserve.Service
module Client = Kvserve.Client
module Store = Kvserve.Store
module Protocol = Kvserve.Protocol

let model = ref Config.optane_adr
let shards = ref 4
let conns = ref 8
let requests = ref 200
let crash_at = ref None
let jobs = ref None
let seed = ref 0x5EED
let metrics = ref false
let prometheus = ref false
let trace_out = ref None
let smoke = ref false

let usage () =
  prerr_endline
    "usage: ptm_serve [--model NAME] [--shards N] [--conns N] [--requests N]\n\
    \                 [--crash-at NS] [--jobs N] [--seed N] [--metrics] [--prometheus]\n\
    \                 [--trace FILE] [--smoke]";
  exit 2

(* A numeric flag's value: an integer of at least [min], else
   usage and exit 2. *)
let int_arg ~min s = match int_of_string_opt s with Some n when n >= min -> n | _ -> usage ()

let rec parse = function
  | [] -> ()
  | "--model" :: name :: rest ->
    (try model := Config.model_of_name name
     with Invalid_argument msg ->
       prerr_endline msg;
       exit 2);
    parse rest
  | "--shards" :: n :: rest ->
    shards := int_arg ~min:1 n;
    parse rest
  | "--conns" :: n :: rest ->
    conns := int_arg ~min:1 n;
    parse rest
  | "--requests" :: n :: rest ->
    requests := int_arg ~min:0 n;
    parse rest
  | "--crash-at" :: n :: rest ->
    crash_at := Some (int_arg ~min:0 n);
    parse rest
  | "--jobs" :: n :: rest ->
    jobs := Some (int_arg ~min:1 n);
    parse rest
  | "--seed" :: n :: rest ->
    seed := int_arg ~min:min_int n;
    parse rest
  | "--metrics" :: rest ->
    metrics := true;
    parse rest
  | "--prometheus" :: rest ->
    prometheus := true;
    parse rest
  | "--trace" :: path :: rest ->
    trace_out := Some path;
    parse rest
  | "--smoke" :: rest ->
    smoke := true;
    parse rest
  | _ -> usage ()

let fleet ~conns ~requests_per_conn ~items =
  Client.generate ~seed:!seed ~conns ~requests_per_conn ~items ~value_bytes:64
    ~set_ratio:0.25 ~delete_ratio:0.03 ~incr_ratio:0.07 ~mean_gap_ns:2_000 ~theta:0.8 ()

let serve () =
  let cfg =
    {
      (Service.default_config !model) with
      Service.shards = !shards;
      seed = !seed;
      trace = !trace_out <> None;
    }
  in
  let fl =
    fleet ~conns:!conns ~requests_per_conn:(!requests / max 1 !conns)
      ~items:cfg.Service.prepopulate_items
  in
  let r = Service.run ?jobs:!jobs ?crash_at:!crash_at cfg fl in
  (match (!trace_out, r.Service.trace) with
  | Some path, Some tr ->
    let oc = open_out path in
    output_string oc (Telemetry.Trace.chrome_trace tr);
    close_out oc;
    Printf.printf "request trace (%d spans) written to %s — open in ui.perfetto.dev\n"
      (Telemetry.Trace.length tr) path
  | Some _, None -> prerr_endline "no trace recorded"
  | None, _ -> ());
  if !metrics then print_string (Service.metrics_jsonl cfg r)
  else if !prometheus then
    print_string (Telemetry.Registry.to_prometheus (Service.registry cfg r))
  else begin
    Printf.printf "model %s, %d shards, %d connections\n" r.Service.model cfg.Service.shards
      fl.Client.conns;
    Printf.printf "%d requests (%d kv ops, %d protocol errors) in %d virtual ns\n"
      r.Service.requests r.Service.kv_ops r.Service.protocol_errors r.Service.elapsed_ns;
    Printf.printf "%.0f ops/s, hit rate %.1f%%, shard imbalance %.2f\n" r.Service.ops_per_sec
      (100.0
      *. float_of_int r.Service.get_hits
      /. float_of_int (max 1 (r.Service.get_hits + r.Service.get_misses)))
      r.Service.imbalance;
    List.iter
      (fun (oc, h) ->
        if Repro_util.Histogram.count h > 0 then
          Printf.printf "  %-6s p50 %.0fns  p99 %.0fns  (%d)\n" (Service.opcode_name oc)
            (Repro_util.Histogram.percentile h 50.0)
            (Repro_util.Histogram.percentile h 99.0)
            (Repro_util.Histogram.count h))
      r.Service.latency;
    List.iter
      (fun rc ->
        Printf.printf
          "  shard %d recovered: %d log words scanned, marker %d, %d ops re-run, %dns modeled (%.2fms wall)\n"
          rc.Service.r_shard rc.Service.r_words_scanned rc.Service.r_durable_marker
          rc.Service.r_replayed_ops rc.Service.r_modeled_ns
          (float_of_int rc.Service.r_wall_ns /. 1e6))
      r.Service.recoveries
  end

(* ---------- smoke ---------- *)

let failures = ref 0

let check label ok =
  if not ok then begin
    incr failures;
    Printf.printf "smoke FAIL: %s\n%!" label
  end

let smoke_service () =
  let cfg =
    {
      (Service.default_config Config.optane_adr) with
      Service.shards = 2;
      prepopulate_items = 64;
      heap_words_per_shard = 1 lsl 17;
      buckets_per_shard = 256;
    }
  in
  let fl = fleet ~conns:3 ~requests_per_conn:25 ~items:64 in
  let run () = Service.run ~crash_at:15_000 cfg fl in
  let a = run () in
  let b = run () in
  check "crash observed" a.Service.crashed;
  check "recovery records present" (a.Service.recoveries <> []);
  check "every request answered" (a.Service.requests = fl.Client.requests);
  check "repeat run byte-identical"
    (Service.metrics_jsonl cfg a = Service.metrics_jsonl cfg b
    && a.Service.replies = b.Service.replies);
  (* Exactly-once across the crash: one connection incrementing one
     counter must end exactly at N, never short (lost commit), never
     past (double replay). *)
  let n = 40 in
  let bytes = Protocol.render_request (Protocol.Incr { key = Client.counter_of 0; delta = 1 }) in
  let incr_fleet =
    {
      Client.chunks =
        List.init n (fun i -> { Client.arrival_ns = 2_000 * (i + 1); conn = 0; bytes });
      conns = 1;
      requests = n;
      trace_ids = [||];
    }
  in
  let r = Service.run ~crash_at:40_000 cfg incr_fleet in
  let numbers =
    List.filter_map int_of_string_opt
      (List.map String.trim (String.split_on_char '\n' r.Service.replies.(0)))
  in
  check "incr: all answered" (List.length numbers = n);
  check "incr: exactly once" (List.fold_left (fun _ v -> v) 0 numbers = n);
  (* stats verb: a memcached `stats` line answered from the unified
     metrics registry — a STAT block naming the request counter. *)
  let stats_fleet =
    {
      Client.chunks =
        [ { Client.arrival_ns = 1_000; conn = 0; bytes = Protocol.render_request Protocol.Stats } ];
      conns = 1;
      requests = 1;
      trace_ids = [||];
    }
  in
  let sr = Service.run cfg stats_fleet in
  let reply = sr.Service.replies.(0) in
  let has_substring hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  let ends_with suffix s =
    let ns = String.length s and nx = String.length suffix in
    ns >= nx && String.sub s (ns - nx) nx = suffix
  in
  check "stats verb: STAT block with END terminator"
    (has_substring reply "STAT kvserve_requests "
    && has_substring reply "STAT ptm_commits"
    && ends_with "END\r\n" reply)

let smoke_image () =
  let sim_cfg = Config.make ~heap_words:(1 lsl 16) ~track_media:true Config.optane_adr in
  let sim = Sim.create sim_cfg in
  let ptm = Ptm.create ~max_threads:1 ~log_words_per_thread:4096 (Sim.machine sim) in
  let store = Store.create ptm ~buckets:64 in
  Ptm.atomic ptm (fun tx ->
      Store.set tx store ~key:"alpha" ~flags:1 "first";
      Store.set tx store ~key:"beta" ~flags:2 "second");
  Sim.persist_all sim;
  let path = Filename.temp_file "ptm_serve_smoke" ".img" in
  Sim.save_image sim path;
  (* Round-trip: a fresh host process attaches the image and finds the
     data. *)
  let sim2 = Sim.load_image sim_cfg path in
  let ptm2 = Ptm.recover (Sim.machine sim2) in
  let store2 = Store.attach ptm2 in
  let ok =
    Ptm.atomic ptm2 (fun tx ->
        Store.get tx store2 "alpha" = Some (1, "first")
        && Store.get tx store2 "beta" = Some (2, "second"))
  in
  check "image round-trip preserves the store" ok;
  (* Torn image: truncate and expect the typed failure, not garbage. *)
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let payload = really_input_string ic (len / 2) in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc payload;
  close_out oc;
  (match Sim.load_image sim_cfg path with
  | _ -> check "truncated image must raise Corrupt_image" false
  | exception Machine.Corrupt_image _ -> ()
  | exception _ -> check "truncated image raised the wrong exception" false);
  Sys.remove path;
  (* Missing image: restart code distinguishes "no image" from "torn
     image" by the exception. *)
  match Sim.load_image sim_cfg path with
  | _ -> check "missing image must raise Sys_error" false
  | exception Sys_error _ -> ()
  | exception _ -> check "missing image raised the wrong exception" false

let () =
  parse (List.tl (Array.to_list Sys.argv));
  if !smoke then begin
    smoke_service ();
    smoke_image ();
    if !failures = 0 then print_endline "SMOKE OK"
    else begin
      Printf.printf "%d smoke check(s) failed\n" !failures;
      exit 1
    end
  end
  else serve ()
