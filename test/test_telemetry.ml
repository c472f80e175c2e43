(* Telemetry subsystem: zero-perturbation, determinism, phase
   accounting, and the fence-cost story the profiler is meant to show. *)

module Driver = Workloads.Driver
module Profile = Pstm.Profile
module Config = Memsim.Config

let duration_ns = 300_000
let threads = 4

let cell ?telemetry ?(coalesce = true) ~model ~algorithm () =
  { (Driver.cell ~duration_ns ~model ~algorithm ~threads Workloads.Bank.spec) with
    telemetry;
    coalesce }

let run ?telemetry ?coalesce ~model ~algorithm () =
  Driver.run_cell (cell ?telemetry ?coalesce ~model ~algorithm ())

(* Sampler off: no monitor thread, so the interleaving must match an
   uninstrumented run exactly. *)
let passive = { Telemetry.default_config with Telemetry.sample_interval_ns = 0 }

let capture (r : Driver.result) =
  match r.Driver.telemetry with
  | Some cap -> cap
  | None -> Alcotest.fail "run started with ?telemetry returned no capture"

let test_disabled_identical () =
  (* Attaching the profiler + machine trace (no sampler) leaves every
     result field bit-identical to a plain run. *)
  let model = Config.optane_adr and algorithm = Pstm.Ptm.Undo in
  let plain = run ~model ~algorithm () in
  let instr = run ~telemetry:passive ~model ~algorithm () in
  Helpers.check_int "elapsed_ns" plain.Driver.elapsed_ns instr.Driver.elapsed_ns;
  Helpers.check_int "commits" plain.Driver.commits instr.Driver.commits;
  Helpers.check_int "aborts" plain.Driver.aborts instr.Driver.aborts;
  Helpers.check_int "max_log_lines" plain.Driver.max_log_lines instr.Driver.max_log_lines;
  Alcotest.(check (float 0.0)) "txs_per_sec" plain.Driver.txs_per_sec instr.Driver.txs_per_sec;
  Helpers.check_bool "sim stats identical" true (plain.Driver.sim = instr.Driver.sim)

let test_exports_deterministic () =
  (* Full telemetry (sampler on) twice: byte-identical artifacts. *)
  let model = Config.optane_adr and algorithm = Pstm.Ptm.Redo in
  let go () =
    let c = cell ~telemetry:Telemetry.default_config ~model ~algorithm () in
    let r = Driver.run_cell c in
    let cap = capture r in
    ( Telemetry.profile_jsonl (Driver.run_meta c r) cap,
      Telemetry.series_csv cap,
      Telemetry.chrome_trace (Driver.run_meta c r) cap )
  in
  let j1, c1, t1 = go () in
  let j2, c2, t2 = go () in
  Alcotest.(check string) "profile.jsonl" j1 j2;
  Alcotest.(check string) "series.csv" c1 c2;
  Alcotest.(check string) "trace.json" t1 t2

let test_phase_sum_to_total () =
  (* Accounting invariant: per thread, phase ns partition in-transaction
     time — they sum to txn_ns exactly, on both flush disciplines (the
     Coalesce phase must not double-count against Clwb_issue). *)
  List.iter
    (fun (algorithm, coalesce) ->
      let r = run ~telemetry:passive ~coalesce ~model:Config.optane_adr ~algorithm () in
      let p = Telemetry.profile (capture r) in
      List.iter
        (fun tid ->
          let txn = Profile.txn_ns p ~tid in
          Helpers.check_bool "thread ran transactions" true (txn > 0);
          Helpers.check_int
            (Printf.sprintf "tid %d phase sum = txn_ns (coalesce %b)" tid coalesce)
            txn
            (Profile.total_phase_ns p ~tid))
        (Profile.tids p))
    [ (Pstm.Ptm.Redo, true); (Pstm.Ptm.Undo, true); (Pstm.Ptm.Redo, false);
      (Pstm.Ptm.Undo, false) ]

let fence_waits_per_commit algorithm =
  let r = run ~telemetry:passive ~model:Config.optane_adr ~algorithm () in
  let p = Telemetry.profile (capture r) in
  let fences = (Profile.run_phase p Profile.Fence_wait).count in
  let commits = Profile.run_sum p Profile.commits in
  Helpers.check_bool "commits > 0" true (commits > 0);
  float_of_int fences /. float_of_int commits

let test_undo_fences_exceed_redo () =
  (* The paper's fence-cost asymmetry: undo orders every in-place write
     with a flush+fence, redo pays O(1) fences at commit.  The profiler
     must make that visible on the bank workload under ADR. *)
  let undo = fence_waits_per_commit Pstm.Ptm.Undo in
  let redo = fence_waits_per_commit Pstm.Ptm.Redo in
  Helpers.check_bool
    (Printf.sprintf "undo fence-waits/commit (%.2f) > redo (%.2f)" undo redo)
    true (undo > redo)

let test_eadr_no_flush_phases () =
  (* eADR: the cache hierarchy is in the persistence domain, so the PTM
     issues no clwb and no ordering fence — those phases must be empty
     and no flushes/fences may be attributed anywhere. *)
  List.iter
    (fun algorithm ->
      let r = run ~telemetry:passive ~model:Config.optane_eadr ~algorithm () in
      let p = Telemetry.profile (capture r) in
      let count phase = (Profile.run_phase p phase).count in
      Helpers.check_int "clwb-issue count" 0 (count Profile.Clwb_issue);
      Helpers.check_int "fence-wait count" 0 (count Profile.Fence_wait);
      Helpers.check_int "wpq-stall count" 0 (count Profile.Wpq_stall);
      List.iter
        (fun phase ->
          let run = Profile.run_phase p phase in
          let name = Profile.phase_name phase in
          Helpers.check_int (name ^ " fences") 0 run.fences;
          Helpers.check_int (name ^ " flushes") 0 run.flushes)
        Profile.all_phases)
    [ Pstm.Ptm.Redo; Pstm.Ptm.Undo ]

(* ---------- the slice recorder and the run read-out ---------- *)

(* One hand-timed transaction through all three recorders: 10 ns of
   [Other]; a 150 ns [Validate] slice around a 30 ns fence; a 50 ns
   3-line flush whose stall probe reports 20 ns of WPQ backpressure. *)
let test_slice_recorder () =
  let sim, m = Helpers.sim_machine () in
  let stall = ref 0 in
  let p = Profile.create ~wpq_stall_probe:(fun _ -> !stall) m in
  ignore
    (Memsim.Sim.spawn sim (fun () ->
         Profile.txn_begin p;
         m.Machine.pause 10;
         Profile.with_phase p Profile.Validate (fun () ->
             m.Machine.pause 100;
             Profile.leaf_fence p Profile.Fence_wait (fun () -> m.Machine.pause 30);
             m.Machine.pause 20);
         Profile.leaf_flush p Profile.Clwb_issue ~flushes:3 (fun () ->
             m.Machine.pause 50;
             stall := !stall + 20);
         Profile.txn_end p ~committed:true));
  Memsim.Sim.run sim;
  let row phase =
    let h = Profile.phase_hist p ~tid:0 phase in
    let r = Profile.run_phase p phase in
    ( Profile.phase_name phase,
      [ r.count; r.ns; r.fences; r.flushes; Repro_util.Histogram.max_value h ] )
  in
  Alcotest.(check (list (pair string (list int))))
    "count, exclusive ns, fences, flushes, longest slice"
    [
      ("other", [ 1; 10; 0; 0; 0 ]);
      ("validate", [ 1; 120; 0; 0; 150 ]);
      ("fence-wait", [ 1; 30; 1; 0; 30 ]);
      ("clwb-issue", [ 1; 30; 0; 3; 30 ]);
      ("wpq-stall", [ 1; 20; 0; 0; 20 ]);
    ]
    (List.map row
       Profile.[ Other; Validate; Fence_wait; Clwb_issue; Wpq_stall ]);
  Helpers.check_int "txn time" 210 (Profile.txn_ns p ~tid:0);
  Helpers.check_int "phases partition it" 210 (Profile.total_phase_ns p ~tid:0);
  Alcotest.(check (list string)) "spans in close order"
    [ "fence-wait"; "validate"; "clwb-issue"; "txn" ]
    (List.map (fun (s : Profile.span) -> s.Profile.label) (Profile.spans p))

(* The run read-out is the per-thread counters summed over threads. *)
let test_run_readout () =
  let r = run ~telemetry:passive ~model:Config.optane_adr ~algorithm:Pstm.Ptm.Undo () in
  let p = Telemetry.profile (capture r) in
  let sum f = List.fold_left (fun acc tid -> acc + f p ~tid) 0 (Profile.tids p) in
  Helpers.check_bool "several threads" true (List.length (Profile.tids p) > 1);
  List.iter
    (fun phase ->
      let run = Profile.run_phase p phase in
      let per f = sum (fun p ~tid -> f p ~tid phase) in
      Alcotest.(check (list int))
        (Profile.phase_name phase ^ ": count, ns, fences, flushes")
        [ per Profile.phase_count; per Profile.phase_ns; per Profile.phase_fences;
          per Profile.phase_flushes ]
        [ run.count; run.ns; run.fences; run.flushes ])
    Profile.all_phases;
  Helpers.check_int "commits" (sum Profile.commits) (Profile.run_sum p Profile.commits);
  Helpers.check_int "commits match the driver" r.Driver.commits (Profile.run_sum p Profile.commits)

(* ---------- flush coalescing, as the profiler reports it ---------- *)

let economy ?coalesce ~model algorithm =
  let r = run ~telemetry:passive ?coalesce ~model ~algorithm () in
  let p = Telemetry.profile (capture r) in
  let { Profile.fences; flushes; _ } = Profile.run_total p in
  let commits = Profile.run_sum p Profile.commits in
  Helpers.check_bool "commits > 0" true (commits > 0);
  let per n = float_of_int n /. float_of_int commits in
  (per fences, per flushes, Profile.run_sum p Profile.fences_saved,
   Profile.run_sum p Profile.flushes_saved, r)

let test_coalescing_drops_fences_adr () =
  (* The acceptance numbers: the 2-write bank transfer under ADR with
     redo logging must spend strictly fewer fences and clwbs per commit
     coalesced than naive, and the savings ledger must agree. *)
  let fences_c, clwbs_c, fsaved_c, csaved_c, _ =
    economy ~coalesce:true ~model:Config.optane_adr Pstm.Ptm.Redo
  in
  let fences_n, clwbs_n, fsaved_n, _, _ =
    economy ~coalesce:false ~model:Config.optane_adr Pstm.Ptm.Redo
  in
  Helpers.check_bool
    (Printf.sprintf "fences/commit coalesced (%.2f) < naive (%.2f)" fences_c fences_n)
    true (fences_c < fences_n);
  Helpers.check_bool
    (Printf.sprintf "clwbs/commit coalesced (%.2f) < naive (%.2f)" clwbs_c clwbs_n)
    true (clwbs_c < clwbs_n);
  Helpers.check_bool "ledger reports fences saved" true (fsaved_c > 0);
  Helpers.check_bool "ledger reports clwbs saved" true (csaved_c > 0);
  Helpers.check_int "naive run saves nothing" 0 fsaved_n

let test_coalescing_noop_under_eadr () =
  (* eADR issues no flushes on either discipline, so coalescing must
     change nothing: same schedule, same commits, empty ledger. *)
  let fences_c, _, fsaved_c, csaved_c, rc =
    economy ~coalesce:true ~model:Config.optane_eadr Pstm.Ptm.Redo
  in
  let fences_n, _, fsaved_n, _, rn =
    economy ~coalesce:false ~model:Config.optane_eadr Pstm.Ptm.Redo
  in
  Alcotest.(check (float 0.0)) "fences/commit both zero" fences_c fences_n;
  Alcotest.(check (float 0.0)) "fences/commit is zero" 0.0 fences_c;
  Helpers.check_int "coalesced ledger empty" 0 (fsaved_c + csaved_c);
  Helpers.check_int "naive ledger empty" 0 fsaved_n;
  Helpers.check_int "commits identical" rc.Driver.commits rn.Driver.commits;
  Helpers.check_int "elapsed identical" rc.Driver.elapsed_ns rn.Driver.elapsed_ns;
  Helpers.check_bool "sim stats identical" true (rc.Driver.sim = rn.Driver.sim)

let test_coalesce_phase_attribution () =
  (* The batched sweep must be charged to the Coalesce phase — present
     on the coalesced ADR run, absent on the naive one. *)
  let count ~coalesce =
    let r = run ~telemetry:passive ~coalesce ~model:Config.optane_adr ~algorithm:Pstm.Ptm.Redo () in
    (Profile.run_phase (Telemetry.profile (capture r)) Profile.Coalesce).count
  in
  Helpers.check_bool "coalesced run records Coalesce phase" true (count ~coalesce:true > 0);
  Helpers.check_int "naive run records no Coalesce phase" 0 (count ~coalesce:false)

let test_series_sampling () =
  let r =
    run ~telemetry:Telemetry.default_config ~model:Config.optane_adr ~algorithm:Pstm.Ptm.Redo ()
  in
  let s = Telemetry.series (capture r) in
  let samples = Telemetry.Series.samples s in
  Helpers.check_bool "samples recorded" true (List.length samples >= 3);
  let rec check_monotone last = function
    | [] -> ()
    | (x : Telemetry.Series.sample) :: rest ->
      Helpers.check_bool "at_ns nondecreasing" true (x.Telemetry.Series.at_ns >= last);
      Helpers.check_bool "commits nondecreasing" true (x.Telemetry.Series.commits >= 0);
      check_monotone x.Telemetry.Series.at_ns rest
  in
  check_monotone 0 samples;
  (* CSV: fixed column count on every row. *)
  let csv = Telemetry.Series.to_csv s in
  let cols line = List.length (String.split_on_char ',' line) in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Helpers.check_bool "csv has data rows" true (List.length lines >= 2);
  List.iter
    (fun line -> Helpers.check_int "csv columns" (cols Telemetry.Series.csv_header) (cols line))
    lines

(* ---------- request tracing ---------- *)

module Trace = Telemetry.Trace
module Registry = Telemetry.Registry

(* One request (trace 7, 100..400ns) whose shard spans partition its
   window: wait 100..150, commit 150..400 with one txn slice under it.
   Built the way the service does it — root in the global store, the
   rest in a shard store merged in afterwards. *)
let build_request_trace () =
  let g = Trace.create () in
  let root =
    Trace.span g ~trace:7 ~parent:Trace.root_parent ~kind:"request" ~tid:0 ~start_ns:100
      ~stop_ns:400
  in
  let sh = Trace.create () in
  ignore
    (Trace.span sh ~trace:7 ~parent:Trace.root_parent ~kind:"queue-wait" ~tid:0 ~start_ns:100
       ~stop_ns:150);
  let commit =
    Trace.span sh ~trace:7 ~parent:Trace.root_parent ~kind:"commit" ~tid:0 ~start_ns:150
      ~stop_ns:400
  in
  ignore (Trace.span sh ~trace:7 ~parent:commit ~kind:"txn" ~tid:0 ~start_ns:160 ~stop_ns:200);
  Trace.merge_into ~src:sh ~dst:g ~root_for:(fun t ->
      if t = 7 then root else Trace.root_parent);
  (g, root)

let test_trace_merge_rebases_parents () =
  let g, root = build_request_trace () in
  Helpers.check_int "span count" 4 (Trace.length g);
  (* root_parent spans from the shard store now hang off the root ... *)
  let wait = Trace.get g (root + 1) in
  Helpers.check_int "wait reparented to root" root wait.Trace.s_parent;
  Alcotest.(check string) "wait kind" "queue-wait" wait.Trace.s_kind;
  (* ... and in-store parent ids were offset into the merged id space. *)
  let slice = Trace.get g (root + 3) in
  Helpers.check_int "slice parent rebased" (root + 2) slice.Trace.s_parent;
  let r = Trace.get g root in
  Helpers.check_int "root keeps root_parent" Trace.root_parent r.Trace.s_parent

let test_trace_accounting_partitions () =
  (* Spans partition the request window, so exclusive times must sum
     exactly to end-to-end latency: root 0 + wait 50 + commit (250-40)
     + txn 40 = 300. *)
  let g, _ = build_request_trace () in
  (match Trace.accounting g with
  | [ (trace, latency, attributed) ] ->
    Helpers.check_int "trace id" 7 trace;
    Helpers.check_int "latency" 300 latency;
    Helpers.check_int "attributed = latency" latency attributed
  | rows -> Alcotest.failf "expected one accounting row, got %d" (List.length rows));
  let h = Trace.latency_hist g in
  Helpers.check_int "one root latency" 1 (Repro_util.Histogram.count h);
  Helpers.check_int "latency max" 300 (Repro_util.Histogram.max_value h)

let test_trace_blame_ranks_exclusive_time () =
  let g, _ = build_request_trace () in
  let b = Trace.blame g ~lo_pct:0.0 ~hi_pct:100.0 in
  Helpers.check_int "band requests" 1 b.Trace.brequests;
  Helpers.check_int "band latency total" 300 b.Trace.btotal_latency_ns;
  Helpers.check_int "no slack on a partition" 0 b.Trace.bslack_ns;
  (match b.Trace.brows with
  | top :: _ ->
    Alcotest.(check string) "commit dominates the band" "commit" top.Trace.bkind;
    Helpers.check_int "commit exclusive ns" 210 top.Trace.bexclusive_ns
  | [] -> Alcotest.fail "blame rows empty");
  let total_excl = List.fold_left (fun a r -> a + r.Trace.bexclusive_ns) 0 b.Trace.brows in
  Helpers.check_int "rows sum to attributed" b.Trace.battributed_ns total_excl

let test_trace_digest_discriminates () =
  let a, _ = build_request_trace () in
  let b, _ = build_request_trace () in
  Alcotest.(check string) "identical builds, identical digests" (Trace.digest a) (Trace.digest b);
  ignore (Trace.span b ~trace:8 ~parent:Trace.root_parent ~kind:"request" ~tid:1 ~start_ns:0 ~stop_ns:1);
  Helpers.check_bool "extra span changes the digest" true (Trace.digest a <> Trace.digest b);
  (* Perfetto export is well-formed enough to parse as JSON. *)
  match Workloads.Bench_json.parse (Trace.chrome_trace a) with
  | Workloads.Bench_json.Obj _ -> ()
  | _ -> Alcotest.fail "chrome_trace is not a JSON object"

(* ---------- metrics registry ---------- *)

let build_registry () =
  let r = Registry.create () in
  let c = Registry.counter r ~help:"requests served" "kvserve_requests" in
  Registry.inc c 3;
  Registry.inc c 2;
  let g = Registry.gauge r ~labels:[ ("shard", "1") ] "ptm_commits" in
  Registry.set_int g 42;
  let h = Registry.histogram r ~labels:[ ("op", "get") ] "kv_latency_ns" in
  let samples = Repro_util.Histogram.create () in
  List.iter (Repro_util.Histogram.record samples) [ 10; 20; 30 ];
  Registry.observe_hist h samples;
  r

let test_registry_find_or_create () =
  let r = build_registry () in
  (* Same (name, labels) comes back as the same cell. *)
  let c = Registry.counter r "kvserve_requests" in
  Registry.inc c 5;
  Alcotest.(check (float 0.0)) "shared cell" 10.0 (Registry.value c);
  (* Different labels are a different cell. *)
  let g2 = Registry.gauge r ~labels:[ ("shard", "2") ] "ptm_commits" in
  Registry.set_int g2 7;
  Helpers.check_int "metric count" 4 (List.length (Registry.metrics r))

let test_registry_exports_deterministic () =
  let a = build_registry () and b = build_registry () in
  Alcotest.(check string) "prometheus" (Registry.to_prometheus a) (Registry.to_prometheus b);
  Alcotest.(check string) "jsonl" (Registry.jsonl a) (Registry.jsonl b);
  let pairs = Registry.stats_pairs a in
  Alcotest.(check (list (pair string string))) "stats pairs" pairs (Registry.stats_pairs b);
  (* Label values join into the flat stats name; histograms expose
     their summary statistics. *)
  Helpers.check_bool "labeled gauge name" true (List.mem_assoc "ptm_commits.1" pairs);
  Alcotest.(check string) "gauge value" "42" (List.assoc "ptm_commits.1" pairs);
  Helpers.check_bool "hist count pair" true (List.mem_assoc "kv_latency_ns.get.count" pairs);
  Alcotest.(check string) "hist count" "3" (List.assoc "kv_latency_ns.get.count" pairs)

let test_registry_prometheus_shape () =
  let text = Registry.to_prometheus (build_registry ()) in
  let has needle =
    let nh = String.length text and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub text i nn = needle || go (i + 1)) in
    go 0
  in
  Helpers.check_bool "HELP line" true (has "# HELP kvserve_requests requests served");
  Helpers.check_bool "counter TYPE" true (has "# TYPE kvserve_requests counter");
  Helpers.check_bool "counter sample" true (has "kvserve_requests 5");
  Helpers.check_bool "labeled gauge sample" true (has "ptm_commits{shard=\"1\"} 42");
  Helpers.check_bool "summary quantile" true (has "quantile=\"0.99\"");
  Helpers.check_bool "summary count" true (has "kv_latency_ns_count{op=\"get\"} 3")

let suite =
  [
    Alcotest.test_case "telemetry off-path identical" `Quick test_disabled_identical;
    Alcotest.test_case "exports byte-deterministic" `Quick test_exports_deterministic;
    Alcotest.test_case "phase ns sum to txn time" `Quick test_phase_sum_to_total;
    Alcotest.test_case "undo fences exceed redo (ADR)" `Quick test_undo_fences_exceed_redo;
    Alcotest.test_case "eADR: no flush/fence phases" `Quick test_eadr_no_flush_phases;
    Alcotest.test_case "profile: one slice recorder" `Quick test_slice_recorder;
    Alcotest.test_case "profile: run read-out sums threads" `Quick test_run_readout;
    Alcotest.test_case "coalescing drops fences (ADR)" `Quick test_coalescing_drops_fences_adr;
    Alcotest.test_case "coalescing is a no-op under eADR" `Quick test_coalescing_noop_under_eadr;
    Alcotest.test_case "coalesce phase attribution" `Quick test_coalesce_phase_attribution;
    Alcotest.test_case "series sampling monotone" `Quick test_series_sampling;
    Alcotest.test_case "trace: merge rebases parents" `Quick test_trace_merge_rebases_parents;
    Alcotest.test_case "trace: accounting partitions" `Quick test_trace_accounting_partitions;
    Alcotest.test_case "trace: blame ranks exclusive time" `Quick
      test_trace_blame_ranks_exclusive_time;
    Alcotest.test_case "trace: digest discriminates" `Quick test_trace_digest_discriminates;
    Alcotest.test_case "registry: find-or-create" `Quick test_registry_find_or_create;
    Alcotest.test_case "registry: exports deterministic" `Quick
      test_registry_exports_deterministic;
    Alcotest.test_case "registry: prometheus shape" `Quick test_registry_prometheus_shape;
  ]
