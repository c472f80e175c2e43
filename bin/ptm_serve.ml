(* Command-line front end for the sharded persistent KV service
   (lib/kvserve): drive a deterministic client fleet through the full
   codec → router → batch → commit path on simulated persistent
   memory, optionally pulling the plug mid-run to exercise restart
   recovery.

     ptm_serve                                   # default run, summary
     ptm_serve --model pdram-lite --shards 8
     ptm_serve --crash-at 100000                 # crash + recover
     ptm_serve --metrics                         # JSONL service metrics *)

module Config = Memsim.Config
module Service = Kvserve.Service
module Client = Kvserve.Client

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

let usage () =
  prerr_endline
    "usage: ptm_serve [--model NAME] [--shards N] [--conns N] [--requests N]\n\
    \                 [--crash-at NS] [--jobs N] [--seed N] [--metrics] [--prometheus]\n\
    \                 [--trace FILE]";
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

let () =
  parse (List.tl (Array.to_list Sys.argv));
  serve ()
