(* The four benchmark workloads, their reps, and every metric they
   report.  Each layer is timed from outside, through public calls only:
   [Sim.create] / [Ptm.create] / [spec.setup], the benchmark's own copy
   of the [Driver.run] loop, a [Machine.t] wrapper handed to
   [Ptm.create], wrapped crash-scenario closures, and [Service.run]
   with [Protocol] / [Router] probes beside it. *)

module Config = Memsim.Config
module Sim = Memsim.Sim
module Ptm = Pstm.Ptm
module Profile = Pstm.Profile
module Driver = Workloads.Driver
module Histogram = Repro_util.Histogram
module Service = Kvserve.Service
module Client = Kvserve.Client
module Protocol = Kvserve.Protocol
module Engine = Crashtest.Engine

let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
let ratio a b = if b = 0.0 then 0.0 else a /. b
let ratio_i a b = ratio (float_of_int a) (float_of_int b)

(* ---------- metric catalogue ---------- *)

(* Every metric the benchmark can print, with its unit.  BENCHMARK.json
   names the same two sets; the smoke test holds them equal. *)
let end_to_end =
  [ ("host_s", "s"); ("setup_s", "s"); ("peak_rss_mb", "MB"); ("virt_ops_per_s", "1/s") ]

(* The PTM phases these workloads can reach (recovery and the FAMS
   snapshot phases never run here). *)
let phases =
  List.filter
    (fun p ->
      not
        (List.mem p
           Profile.[ Recovery; Snap_sweep; Snap_publish; Snap_apply ]))
    Profile.all_phases

(* Span kinds a kvserve request can cross without a crash: wait and
   execution spans, plus the PTM phase slices nested under commits and
   reads.  The root "request" span is left out: its children partition
   it, so its exclusive time is 0. *)
let tail_kinds =
  [ "queue-wait"; "throttle-wait"; "batch-wait"; "commit"; "read" ]
  @ List.map Profile.phase_name phases

let per_layer =
  [
    ("host.wall_s", "s"); ("host.ref_s", "s");
    ("setup.sim_create_s", "s"); ("setup.ptm_create_s", "s"); ("setup.populate_s", "s");
    ("des.events", "count"); ("des.events_per_host_s", "1/s");
    ("des.minor_words_per_event", "words"); ("des.major_words_per_event", "words");
  ]
  @ List.concat_map
      (fun k -> [ ("machine." ^ k ^ ".calls", "count"); ("machine." ^ k ^ ".self_s", "s") ])
      Ledger.machine_kinds
  @ [
      ("machine.self_s", "s"); ("machine.ns_per_call", "ns"); ("op.self_s", "s");
      ("op.calls", "count"); ("driver.self_s", "s"); ("trace.clock_ns", "ns");
      ("trace.overhead_s", "s"); ("trace.host_s", "s");
      ("memsim.loads_per_commit", "count"); ("memsim.stores_per_commit", "count");
      ("memsim.l3_hit_ratio", "ratio"); ("memsim.writebacks_per_commit", "count");
      ("memsim.clwbs_per_commit", "count"); ("memsim.sfences_per_commit", "count");
      ("memsim.nvm_reads_per_commit", "count"); ("memsim.fence_wait_ns_per_commit", "ns");
      ("memsim.wpq_stall_ns_per_commit", "ns");
      ("pstm.commit_ratio", "ratio"); ("pstm.max_log_lines", "lines");
      ("pstm.fences_saved_per_commit", "count"); ("pstm.flushes_saved_per_commit", "count");
    ]
  @ List.map (fun p -> ("pstm.phase." ^ Profile.phase_name p ^ ".ns_per_commit", "ns")) phases
  @ [
      ("virt.p50_ns", "ns"); ("virt.p99_ns", "ns"); ("virt.samples", "count");
      ("kvserve.protocol.ns_per_request", "ns"); ("kvserve.router.ns_per_key", "ns");
      ("kvserve.batch_occupancy_mean", "count"); ("kvserve.throttled_share", "ratio");
      ("kvserve.commit_ratio", "ratio"); ("kvserve.imbalance", "ratio");
      ("kvserve.clwbs_per_op", "count"); ("kvserve.sfences_per_op", "count");
      ("kvserve.get_hit_ratio", "ratio"); ("kvserve.slo_rate_per_s", "1/s");
    ]
  @ List.map (fun k -> ("kvserve.tail." ^ k ^ ".share_pct", "%")) tail_kinds
  @ [
      ("crash.candidates", "count"); ("crash.tested", "count"); ("crash.ms_per_point", "ms");
      ("crash.worker_s", "s"); ("crash.validate_s", "s"); ("crash.oracle_s", "s");
      ("crash.oracle_calls", "count"); ("crash.engine_other_s", "s");
    ]

(* ---------- reps ---------- *)

(* One rep.  [digest] captures the virtual outcome, which every rep,
   the traced one included, must reproduce exactly. *)
type rep = { metrics : (string * float) list; digest : string; attempted : int; failed : int }

type workload = {
  name : string;
  rep : unit -> rep;
  traced : (host_s:float -> rep) list;
      (** the traced reps, given the untraced reps' median wall time *)
}

type result = { values : (string * float list) list; attempted : int; failed : int }

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> 0.0
      in
      scan ())

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0 else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Time the reference kernel right after a rep and scale the rep's
   [host_s] and [setup_s] to the kernel's nominal speed; the wall time
   and the kernel time stay beside them as [host.wall_s] and
   [host.ref_s]. *)
let scaled (r : rep) =
  let ref_s = Reference.time () in
  let k = Reference.nominal_s /. ref_s in
  let scale (name, v) = if name = "host_s" || name = "setup_s" then (name, v *. k) else (name, v) in
  {
    r with
    metrics =
      List.map scale r.metrics
      @ [ ("host.wall_s", List.assoc "host_s" r.metrics); ("host.ref_s", ref_s) ];
  }

(* Reps run until at least [min_reps] are done and [seconds] of host
   time have passed; then the traced reps when [trace].  Each rep starts
   on a collected heap, so none pays for its predecessor's garbage.
   Peak RSS is read after rep 0, before the reference kernel first runs:
   the OCaml heap keeps growing by fragmentation across later reps, so a
   peak taken at the end would depend on how many reps the time budget
   allowed. *)
let run ~trace ~min_reps ~seconds w =
  let fresh f =
    Gc.full_major ();
    f ()
  in
  let t0 = now_s () in
  let rep0 = fresh w.rep in
  let rss = peak_rss_mb () in
  let rep0 = scaled rep0 in
  let rec go acc n =
    if n >= min_reps && now_s () -. t0 >= seconds then List.rev acc
    else go (scaled (fresh w.rep) :: acc) (n + 1)
  in
  let reps = go [ rep0 ] 1 in
  let per_rep =
    List.map
      (fun (name, _) -> (name, List.map (fun (r : rep) -> List.assoc name r.metrics) reps))
      rep0.metrics
  in
  let traced =
    if trace then
      let host_s = median (List.assoc "host.wall_s" per_rep) in
      List.map (fun f -> fresh (fun () -> f ~host_s)) w.traced
    else []
  in
  let checked = reps @ traced in
  {
    values =
      (("peak_rss_mb", [ rss ]) :: per_rep)
      @ List.concat_map (fun (r : rep) -> List.map (fun (k, v) -> (k, [ v ])) r.metrics) traced;
    attempted = List.fold_left (fun acc (r : rep) -> acc + r.attempted) 0 checked;
    failed =
      List.fold_left
        (fun acc r -> acc + if r.digest <> rep0.digest then r.attempted else r.failed)
        0 checked;
  }

(* ---------- DES workloads: a copy of the Driver.run loop ---------- *)

type des = {
  result : Driver.result;
  ptm : Ptm.t;
  sim_create_s : float;
  ptm_create_s : float;
  populate_s : float;
  host_s : float;
  minor_words : float;
  major_words : float;
}

(* [Driver.run] with its defaults (redo, at-commit flush, coalescing,
   2^20 orecs), minus the monitor threads, and with three hooks: the
   machine handed to [Ptm.create] may be wrapped by a ledger, telemetry
   may be attached after setup, and the ledger sees the loop switch
   between driver and operation code. *)
let run_des ?ledger ?telemetry ~duration_ns ~seed ~model ~algorithm ~threads
    (spec : Driver.spec) =
  let t0 = now_s () in
  let cfg = Config.make ~heap_words:spec.Driver.heap_words ~track_media:false model in
  let sim = Sim.create cfg in
  let t1 = now_s () in
  let m = Sim.machine sim in
  let m = match ledger with None -> m | Some l -> Ledger.wrap_machine l m in
  let ptm =
    Ptm.create ~algorithm ~flush_timing:Ptm.At_commit ~coalesce:true ~orec_bits:20
      ~max_threads:(max (threads + 1) 32) ~rng_seed:seed m
  in
  let t2 = now_s () in
  spec.Driver.setup ptm;
  let t3 = now_s () in
  let minor0 = Gc.minor_words () and major0 = (Gc.quick_stat ()).Gc.major_words in
  let h0 = Monotonic_clock.now () in
  Option.iter (fun l -> Ledger.reset l ~at:(Int64.to_int h0) ~layer:Ledger.driver) ledger;
  Sim.reset_timing sim;
  Ptm.Stats.reset ptm;
  let capture = Option.map (fun config -> Telemetry.attach ~config sim ptm) telemetry in
  let root_rng = Repro_util.Rng.create seed in
  let latency = Histogram.create () in
  for tid = 0 to threads - 1 do
    let rng = Repro_util.Rng.split root_rng in
    ignore
      (Sim.spawn sim (fun () ->
           Option.iter (fun l -> Ledger.switch l Ledger.driver) ledger;
           let op = spec.Driver.make_op ptm ~tid ~rng in
           let rec loop () =
             let start = Sim.now sim in
             if start < duration_ns then begin
               (match ledger with
               | None -> op ()
               | Some l ->
                 Ledger.switch l Ledger.op;
                 op ();
                 Ledger.switch l Ledger.driver);
               Histogram.record latency (Sim.now sim - start);
               loop ()
             end
           in
           loop ()))
  done;
  Sim.run sim;
  let elapsed_ns = max (Sim.now sim) 1 in
  let stats = Ptm.Stats.get ptm in
  let result =
    {
      Driver.workload = spec.Driver.name;
      model = model.Config.model_name;
      algorithm = Ptm.algorithm_name algorithm;
      threads;
      elapsed_ns;
      commits = stats.Ptm.Stats.commits;
      aborts = stats.Ptm.Stats.aborts;
      txs_per_sec = float_of_int stats.Ptm.Stats.commits /. (float_of_int elapsed_ns *. 1e-9);
      commits_per_abort = Ptm.Stats.commits_per_abort stats;
      max_log_lines = stats.Ptm.Stats.max_log_lines;
      latency;
      sim = Sim.Stats.get sim;
      telemetry = capture;
    }
  in
  let h1 = Monotonic_clock.now () in
  Option.iter (fun l -> Ledger.stop l ~at:(Int64.to_int h1)) ledger;
  let minor1 = Gc.minor_words () and major1 = (Gc.quick_stat ()).Gc.major_words in
  {
    result;
    ptm;
    sim_create_s = t1 -. t0;
    ptm_create_s = t2 -. t1;
    populate_s = t3 -. t2;
    host_s = Int64.to_float (Int64.sub h1 h0) *. 1e-9;
    minor_words = minor1 -. minor0;
    major_words = major1 -. major0;
  }

(* Everything virtual a DES run produced: two runs with equal digests
   agree on commits, aborts, virtual time, every machine counter and
   the latency distribution. *)
let des_digest (r : Driver.result) =
  let h = r.Driver.latency in
  String.concat " "
    (List.map string_of_int
       ([ r.Driver.commits; r.Driver.aborts; r.Driver.elapsed_ns; r.Driver.max_log_lines;
          Histogram.count h; Histogram.max_value h ]
       @ List.map snd (Sim.Stats.fields r.Driver.sim))
    @ List.map (Printf.sprintf "%h")
        [ Histogram.percentile h 50.0; Histogram.percentile h 99.0; Histogram.mean h ])

let latency_metrics h =
  [
    ("virt.p50_ns", Histogram.percentile h 50.0);
    ("virt.p99_ns", Histogram.percentile h 99.0);
    ("virt.samples", float_of_int (Histogram.count h));
  ]

let des_rep_metrics d =
  let r = d.result in
  let s = r.Driver.sim in
  let commits = float_of_int r.Driver.commits in
  let per_commit v = ratio (float_of_int v) commits in
  let events = float_of_int (Workloads.Bench_json.events r) in
  [
    ("setup_s", d.sim_create_s +. d.ptm_create_s +. d.populate_s);
    ("host_s", d.host_s);
    ("virt_ops_per_s", r.Driver.txs_per_sec);
    ("setup.sim_create_s", d.sim_create_s);
    ("setup.ptm_create_s", d.ptm_create_s);
    ("setup.populate_s", d.populate_s);
    ("des.events", events);
    ("des.events_per_host_s", ratio events d.host_s);
    ("des.minor_words_per_event", ratio d.minor_words events);
    ("des.major_words_per_event", ratio d.major_words events);
    ("memsim.loads_per_commit", per_commit s.Sim.Stats.loads);
    ("memsim.stores_per_commit", per_commit s.Sim.Stats.stores);
    ( "memsim.l3_hit_ratio",
      ratio_i s.Sim.Stats.l3_hits (s.Sim.Stats.l3_hits + s.Sim.Stats.l3_misses) );
    ("memsim.writebacks_per_commit", per_commit s.Sim.Stats.writebacks);
    ("memsim.clwbs_per_commit", per_commit s.Sim.Stats.clwbs);
    ("memsim.sfences_per_commit", per_commit s.Sim.Stats.sfences);
    ("memsim.nvm_reads_per_commit", per_commit s.Sim.Stats.nvm_reads);
    ("memsim.fence_wait_ns_per_commit", per_commit s.Sim.Stats.fence_wait_ns);
    ("memsim.wpq_stall_ns_per_commit", per_commit s.Sim.Stats.wpq_stall_ns);
    ("pstm.commit_ratio", ratio_i r.Driver.commits (r.Driver.commits + r.Driver.aborts));
    ("pstm.max_log_lines", float_of_int r.Driver.max_log_lines);
  ]
  @ latency_metrics r.Driver.latency

(* Telemetry for the traced rep: the phase profiler only — no sampling
   thread (it would add simulated work) and no machine event ring. *)
let telemetry_config =
  {
    Telemetry.default_config with
    Telemetry.sample_interval_ns = 0;
    span_capacity = 1024;
    machine_trace_capacity = 0;
  }

(* The ledger rep.  [clock_ns], the calibrated cost of one crossing, is
   subtracted from the layer each crossing entered; a negative result
   would mean the calibration claims more time than the layer took.
   [trace.overhead_s] is this rep's host time minus the untraced median,
   so the corrected self times plus the overhead add up to this rep's
   host time only as far as the calibration explains the overhead. *)
let ledger_metrics ~clock_ns ~host_s ledger d =
  let self_s name =
    (float_of_int (Ledger.self_ns ledger name)
    -. (clock_ns *. float_of_int (Ledger.entries ledger name)))
    *. 1e-9
  in
  let kinds = Ledger.machine_kinds in
  let machine_s = List.fold_left (fun acc k -> acc +. self_s k) 0.0 kinds in
  let machine_calls = List.fold_left (fun acc k -> acc + Ledger.entries ledger k) 0 kinds in
  List.concat_map
    (fun k ->
      [
        ("machine." ^ k ^ ".calls", float_of_int (Ledger.entries ledger k));
        ("machine." ^ k ^ ".self_s", self_s k);
      ])
    kinds
  @ [
      ("machine.self_s", machine_s);
      ("machine.ns_per_call", ratio (machine_s *. 1e9) (float_of_int machine_calls));
      ("op.self_s", self_s "op");
      ("op.calls", float_of_int (Histogram.count d.result.Driver.latency));
      ("driver.self_s", self_s "driver");
      ("trace.clock_ns", clock_ns);
      ("trace.overhead_s", d.host_s -. host_s);
      ("trace.host_s", d.host_s);
    ]

(* The profiled rep: the phase profiler alone, in a rep of its own so
   that its cost stays out of the ledger rep's overhead. *)
let profile_metrics d =
  let r = d.result in
  let commits = float_of_int r.Driver.commits in
  let prof =
    match r.Driver.telemetry with Some cap -> Telemetry.profile cap | None -> assert false
  in
  let sum f = List.fold_left (fun acc tid -> acc + f prof ~tid) 0 (Profile.tids prof) in
  [
    ("pstm.fences_saved_per_commit", ratio (float_of_int (sum Profile.fences_saved)) commits);
    ("pstm.flushes_saved_per_commit", ratio (float_of_int (sum Profile.flushes_saved)) commits);
  ]
  @ List.map
      (fun p ->
        ( "pstm.phase." ^ Profile.phase_name p ^ ".ns_per_commit",
          ratio (float_of_int (sum (fun prof ~tid -> Profile.phase_ns prof ~tid p))) commits ))
      phases

(* A rep fails when its region does not check clean. *)
let des_rep metrics d =
  {
    metrics;
    digest = des_digest d.result;
    attempted = 1;
    failed = (if Pmem.Check.is_clean (Pmem.Check.run (Ptm.region d.ptm)) then 0 else 1);
  }

let des_workload ~name ~spec ~model ~threads ~duration_ns ~seed =
  let run ?ledger ?telemetry () =
    run_des ?ledger ?telemetry ~duration_ns ~seed ~model ~algorithm:Ptm.Redo ~threads spec
  in
  let rep () =
    let d = run () in
    des_rep (des_rep_metrics d) d
  in
  let ledger_rep ~host_s =
    let clock_ns = Ledger.calibrate () in
    let ledger = Ledger.create Ledger.des_layers in
    let d = run ~ledger () in
    des_rep (ledger_metrics ~clock_ns ~host_s ledger d) d
  in
  let profiled_rep ~host_s:_ =
    let d = run ~telemetry:telemetry_config () in
    des_rep (profile_metrics d) d
  in
  { name; rep; traced = [ ledger_rep; profiled_rep ] }

(* ---------- kvserve ---------- *)

let kv_items = 512 * 1024 / 64
let kv_shards = 4
let slo_p99_ns = 25_000.0

(* Offered-rate ladder as per-connection mean inter-arrival gaps: with 8
   connections, gap g offers 8e9 / g requests per virtual second
   (3.2, 2.67, 2.29, 2.0, 1.6, 1.33 M/s). *)
let kv_conns = 8
let kv_gaps = [ 2500; 3000; 3500; 4000; 5000; 6000 ]
let kv_gap = 4000

let rec next_pow2 n k = if k >= n then k else next_pow2 n (k * 2)

let kv_config ~seed =
  let per_shard = (kv_items / kv_shards) + 1 in
  {
    (Service.default_config Config.optane_adr) with
    Service.shards = kv_shards;
    prepopulate_items = kv_items;
    value_bytes = 64;
    buckets_per_shard = max 256 (next_pow2 per_shard 1);
    heap_words_per_shard = max (1 lsl 16) (next_pow2 (per_shard * 48) 1);
    seed;
  }

let kv_fleet ~seed ~requests_per_conn ~mean_gap_ns =
  Client.generate ~seed ~conns:kv_conns ~requests_per_conn ~items:kv_items ~value_bytes:64
    ~set_ratio:0.20 ~delete_ratio:0.02 ~incr_ratio:0.05 ~mean_gap_ns ~theta:0.8 ()

let kv_latency (r : Service.result) = Histogram.merge_list (List.map snd r.Service.latency)

let kv_digest (r : Service.result) =
  let h = kv_latency r in
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (Array.to_list r.Service.replies
          @ List.map string_of_int
              [ r.Service.requests; r.Service.kv_ops; r.Service.elapsed_ns; Histogram.count h;
                Histogram.max_value h ])))

let kv_sim_field (r : Service.result) name =
  List.fold_left (fun acc s -> acc + List.assoc name s.Service.s_sim) 0 r.Service.shards

let kv_rep_metrics ~setup_s ~host_s (r : Service.result) =
  let served = r.Service.requests - r.Service.protocol_errors in
  let shards = r.Service.shards in
  let total f = List.fold_left (fun acc s -> acc + f s) 0 shards in
  let ops = float_of_int r.Service.kv_ops in
  [
    ("setup_s", setup_s);
    ("host_s", host_s);
    ("virt_ops_per_s", ratio_i served r.Service.elapsed_ns *. 1e9);
    ("kvserve.batch_occupancy_mean", Histogram.mean r.Service.batch_occupancy);
    ( "kvserve.throttled_share",
      ratio_i (total (fun s -> s.Service.s_throttled)) (total (fun s -> s.Service.s_batches)) );
    ( "kvserve.commit_ratio",
      let c = total (fun s -> s.Service.s_commits) in
      ratio_i c (c + total (fun s -> s.Service.s_aborts)) );
    ("kvserve.imbalance", r.Service.imbalance);
    ("kvserve.clwbs_per_op", ratio (float_of_int (kv_sim_field r "clwbs")) ops);
    ("kvserve.sfences_per_op", ratio (float_of_int (kv_sim_field r "sfences")) ops);
    ( "kvserve.get_hit_ratio",
      ratio_i r.Service.get_hits (r.Service.get_hits + r.Service.get_misses) );
  ]
  @ latency_metrics (kv_latency r)

(* Re-run the fleet's own bytes through the codec and its keys through
   the router, outside [Service.run]: host ns per parsed request and per
   routed key. *)
let kv_probes (fleet : Client.t) =
  let parsers = Array.init fleet.Client.conns (fun _ -> Protocol.parser_create ()) in
  let items = ref [] and parsed = ref 0 in
  let t0 = now_s () in
  List.iter
    (fun (c : Client.chunk) ->
      Protocol.feed parsers.(c.Client.conn) c.Client.bytes;
      List.iter
        (fun it ->
          incr parsed;
          items := it :: !items)
        (Protocol.drain parsers.(c.Client.conn)))
    fleet.Client.chunks;
  let t1 = now_s () in
  let keys =
    Array.of_list
      (List.concat_map
         (function
           | Protocol.Request (Protocol.Get ks) -> ks
           | Protocol.Request (Protocol.Set { key; _ })
           | Protocol.Request (Protocol.Delete key)
           | Protocol.Request (Protocol.Incr { key; _ }) ->
             [ key ]
           | Protocol.Request Protocol.Stats | Protocol.Protocol_error _ -> [])
         !items)
  in
  let acc = ref 0 in
  let t2 = now_s () in
  Array.iter (fun k -> acc := !acc + Kvserve.Router.shard_of_key ~shards:kv_shards k) keys;
  let t3 = now_s () in
  ignore (Sys.opaque_identity !acc);
  [
    ("kvserve.protocol.ns_per_request", ratio ((t1 -. t0) *. 1e9) (float_of_int !parsed));
    ("kvserve.router.ns_per_key", ratio ((t3 -. t2) *. 1e9) (float_of_int (Array.length keys)));
  ]

(* Protocol errors and requests left unanswered. *)
let kv_failed (fleet : Client.t) (r : Service.result) =
  r.Service.protocol_errors + max 0 (fleet.Client.requests - r.Service.requests)

let kv_workload ~name ~requests_per_conn ~seed =
  let cfg = kv_config ~seed in
  let fleet_at gap = kv_fleet ~seed ~requests_per_conn ~mean_gap_ns:gap in
  let rep () =
    let t0 = now_s () in
    let fleet = fleet_at kv_gap in
    let t1 = now_s () in
    let r = Service.run ~jobs:1 cfg fleet in
    let t2 = now_s () in
    {
      metrics = kv_rep_metrics ~setup_s:(t1 -. t0) ~host_s:(t2 -. t1) r;
      digest = kv_digest r;
      attempted = fleet.Client.requests;
      failed = kv_failed fleet r;
    }
  in
  let traced ~host_s =
    let fleet = fleet_at kv_gap in
    let t0 = now_s () in
    let r = Service.run ~jobs:1 { cfg with Service.trace = true } fleet in
    let traced_s = now_s () -. t0 in
    let tail =
      match r.Service.trace with
      | Some tr -> (Telemetry.Trace.blame tr ~lo_pct:95.0 ~hi_pct:100.0).Telemetry.Trace.brows
      | None -> []
    in
    let share kind =
      match List.find_opt (fun row -> row.Telemetry.Trace.bkind = kind) tail with
      | Some row -> row.Telemetry.Trace.bshare
      | None -> 0.0
    in
    let slo_rate =
      List.fold_left
        (fun best gap ->
          let r = Service.run ~jobs:1 cfg (fleet_at gap) in
          if Histogram.percentile (kv_latency r) 99.0 <= slo_p99_ns then
            Float.max best (float_of_int kv_conns *. 1e9 /. float_of_int gap)
          else best)
        0.0 kv_gaps
    in
    {
      metrics =
        [ ("trace.overhead_s", traced_s -. host_s); ("trace.host_s", traced_s);
          ("kvserve.slo_rate_per_s", slo_rate) ]
        @ kv_probes fleet
        @ List.map (fun k -> ("kvserve.tail." ^ k ^ ".share_pct", share k)) tail_kinds;
      digest = kv_digest r;
      attempted = fleet.Client.requests;
      failed = kv_failed fleet r;
    }
  in
  { name; rep; traced = [ traced ] }

(* ---------- crash sweep ---------- *)

let crash_threads = 4
let crash_ops = 10
let crash_scenario () = Crashtest.Scenarios.bank ~threads:crash_threads ~ops:crash_ops ()

(* Every argument explicit, so no CRASHTEST_* environment knob applies. *)
let crash_explore ~points ~seed sc =
  Engine.explore ~points ~seed ~exhaustive:false ~model:Config.optane_adr ~algorithm:Ptm.Redo sc

let crash_digest (r : Engine.report) =
  Printf.sprintf "%d %d %d %d" r.Engine.final_time r.Engine.candidates r.Engine.tested
    (List.length r.Engine.failures)

(* A rep is [crash_sweeps] sweeps of [points / crash_sweeps] points
   each, one scenario per sweep, over sub-seeds of the run's seed.  One
   seed's transfers decide the reference run's virtual length, which
   every re-simulation replays, so a single sweep would time the seed as
   much as the code; eight sweeps average that out. *)
let crash_sweeps = 8
let crash_seeds ~seed = List.init crash_sweeps (fun i -> (seed * crash_sweeps) + i)
let crash_scenarios wrap = List.init crash_sweeps (fun _ -> wrap (crash_scenario ()))

let crash_sweep ~points ~seed scenarios =
  List.map2
    (fun s sc -> crash_explore ~points:(max 1 (points / crash_sweeps)) ~seed:s sc)
    (crash_seeds ~seed) scenarios

let sum_reports f (rs : Engine.report list) = List.fold_left (fun acc r -> acc + f r) 0 rs

(* Every tested crash point is one attempt; an oracle failure fails it. *)
let crash_rep metrics rs =
  {
    metrics;
    digest = String.concat "; " (List.map crash_digest rs);
    attempted = sum_reports (fun r -> r.Engine.tested) rs;
    failed = sum_reports (fun r -> List.length r.Engine.failures) rs;
  }

let crash_workload ~name ~points ~seed =
  let sweep = crash_sweep ~points ~seed in
  let rep () =
    let t0 = now_s () in
    let scs = crash_scenarios Fun.id in
    let t1 = now_s () in
    let rs = sweep scs in
    let host_s = now_s () -. t1 in
    let tested = sum_reports (fun r -> r.Engine.tested) rs in
    crash_rep
      [
        ("setup_s", t1 -. t0);
        ("host_s", host_s);
        (* Every bank worker commits each of its transfers exactly once
           in a crash-free reference run. *)
        ( "virt_ops_per_s",
          ratio_i
            (crash_sweeps * crash_threads * crash_ops)
            (sum_reports (fun r -> r.Engine.final_time) rs)
          *. 1e9 );
        ("crash.candidates", float_of_int (sum_reports (fun r -> r.Engine.candidates) rs));
        ("crash.tested", float_of_int tested);
        ("crash.ms_per_point", ratio (host_s *. 1e3) (float_of_int tested));
      ]
      rs
  in
  let traced ~host_s =
    let ledger = Ledger.create Ledger.crash_layers in
    let scs = crash_scenarios (Ledger.wrap_scenario ledger) in
    let h0 = Monotonic_clock.now () in
    Ledger.reset ledger ~at:(Int64.to_int h0) ~layer:0;
    let rs = sweep scs in
    let h1 = Monotonic_clock.now () in
    Ledger.stop ledger ~at:(Int64.to_int h1);
    let traced_s = Int64.to_float (Int64.sub h1 h0) *. 1e-9 in
    let self name = float_of_int (Ledger.self_ns ledger name) *. 1e-9 in
    crash_rep
      [
        ("trace.overhead_s", traced_s -. host_s);
        ("trace.host_s", traced_s);
        ("crash.worker_s", self "worker");
        ("crash.validate_s", self "validate");
        ("crash.oracle_s", self "oracle");
        ("crash.oracle_calls", float_of_int (Ledger.entries ledger "oracle"));
        ("crash.engine_other_s", self "engine");
      ]
      rs
  in
  { name; rep; traced = [ traced ] }

(* ---------- the suite ---------- *)

(* The two DES cells: (name, spec, model, virtual ns per rep). *)
let des_threads = 8

let des_cells ~quick =
  [
    ( "fig3-btree-adr", Workloads.Btree_bench.insert_only, Config.optane_adr,
      if quick then 1_000_000 else 20_000_000 );
    ( "ycsb-b-eadr", Workloads.Ycsb.spec Workloads.Ycsb.B, Config.optane_eadr,
      if quick then 1_000_000 else 10_000_000 );
  ]

let workloads ~quick ~seed =
  List.map
    (fun (name, spec, model, duration_ns) ->
      des_workload ~name ~spec ~model ~threads:des_threads ~duration_ns ~seed)
    (des_cells ~quick)
  @ [
      kv_workload ~name:"kvserve-adr" ~requests_per_conn:(if quick then 400 else 16_000) ~seed;
      crash_workload ~name:"crash-bank-adr" ~points:(if quick then 16 else 256) ~seed;
    ]
