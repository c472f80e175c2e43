open Workloads
module Ptm = Pstm.Ptm
module Config = Memsim.Config

let quick_run ?(model = Config.optane_adr) ?(algorithm = Ptm.Redo) ?(threads = 2)
    ?(duration_ns = 150_000) spec =
  Driver.run_cell (Driver.cell ~duration_ns ~model ~algorithm ~threads spec)

let all_specs () =
  [
    Tatp.spec;
    Tpcc.spec Tpcc.Hash;
    Tpcc.spec Tpcc.Btree;
    Btree_bench.insert_only;
    Btree_bench.mixed;
    Vacation.spec Vacation.Low;
    Vacation.spec Vacation.High;
    Memcached.spec ~items:64;
  ]

let test_every_workload_commits () =
  List.iter
    (fun spec ->
      let r = quick_run spec in
      Helpers.check_bool (spec.Driver.name ^ " commits") true (r.Driver.commits > 0);
      Helpers.check_bool
        (spec.Driver.name ^ " positive throughput")
        true (r.Driver.txs_per_sec > 0.0))
    (all_specs ())

let test_every_workload_all_models () =
  (* Every (workload, model, algorithm) combination must run. *)
  List.iter
    (fun spec ->
      List.iter
        (fun model ->
          List.iter
            (fun algorithm ->
              let r = quick_run ~model ~algorithm ~duration_ns:60_000 spec in
              Helpers.check_bool
                (Printf.sprintf "%s/%s/%s runs" spec.Driver.name model.Config.model_name
                   (Ptm.algorithm_name algorithm))
                true (r.Driver.commits > 0))
            (List.filter
               (fun a ->
                 Ptm.runs_on a ~needs_flush:(Config.needs_flush model)
                   ~durable_publish:model.Config.durable_publish)
               Ptm.algorithms))
        [ Config.dram_adr; Config.optane_adr; Config.optane_eadr; Config.pdram;
          Config.pdram_lite ])
    [ Tatp.spec; Tpcc.spec Tpcc.Hash ]

let test_driver_deterministic () =
  let once () =
    let r = quick_run ~threads:4 (Tpcc.spec Tpcc.Hash) in
    (r.Driver.commits, r.Driver.aborts, r.Driver.elapsed_ns)
  in
  Alcotest.(check (triple int int int)) "identical runs" (once ()) (once ())

let test_driver_seed_changes_run () =
  let with_seed seed =
    (Driver.run_cell
       { (Driver.cell ~duration_ns:150_000 ~model:Config.optane_adr ~algorithm:Ptm.Redo
            ~threads:2 Tatp.spec) with
         seed })
      .Driver.commits
  in
  Helpers.check_bool "different seeds differ" true (with_seed 1 <> with_seed 2 || with_seed 3 <> with_seed 4)

let test_threads_increase_throughput () =
  let tput threads =
    (quick_run ~model:Config.dram_eadr ~threads ~duration_ns:300_000 Tatp.spec).Driver.txs_per_sec
  in
  Helpers.check_bool "4 threads beat 1" true (tput 4 > 1.5 *. tput 1)

(* The driver's measured run, with [oracle] reading the heap before
   the machine is released. *)
let run_with_oracle spec ~threads ~duration_ns oracle =
  let c = Driver.cell ~duration_ns ~model:Config.optane_adr ~algorithm:Ptm.Redo ~threads spec in
  Driver.populate c (fun sim ptm ->
      ignore (Driver.measure c sim ptm : Driver.result);
      oracle ptm (Ptm.machine ptm))

let test_tpcc_district_oracle () =
  (* Every committed new-order bumps exactly one district counter: the
     sum of (next_o_id - 1) equals the number of commits. *)
  run_with_oracle (Tpcc.spec Tpcc.Hash) ~threads:4 ~duration_ns:200_000 (fun ptm m ->
      let districts = Ptm.root_get ptm 1 in
      let total = ref 0 in
      for dno = 0 to (Tpcc.warehouses * Tpcc.districts_per_warehouse) - 1 do
        total := !total + (m.Machine.raw_read (districts + (dno * 8)) - 1)
      done;
      let commits = (Ptm.Stats.get ptm).Ptm.Stats.commits in
      Helpers.check_int "orders equal commits" commits !total)

let test_vacation_resource_invariant () =
  run_with_oracle (Vacation.spec Vacation.High) ~threads:4 ~duration_ns:200_000 (fun ptm _m ->
      (* used must stay within [0, total] for every resource row. *)
      for rel = 0 to 2 do
        let t = Pstructs.Bptree.attach ptm (Ptm.root_get ptm rel) in
        List.iter
          (fun (_, row) ->
            let m = Ptm.machine ptm in
            let total = m.Machine.raw_read row in
            let used = m.Machine.raw_read (row + 1) in
            Helpers.check_bool "0 <= used" true (used >= 0);
            Helpers.check_bool "used <= total" true (used <= total))
          (Pstructs.Bptree.to_alist t)
      done)

let test_btree_insert_only_unique_keys () =
  run_with_oracle Btree_bench.insert_only ~threads:4 ~duration_ns:150_000 (fun ptm _ ->
      let t = Pstructs.Bptree.attach ptm (Ptm.root_get ptm 0) in
      Pstructs.Bptree.check_invariants t;
      let keys = List.map fst (Pstructs.Bptree.to_alist t) in
      Helpers.check_int "no duplicate keys inserted" (List.length keys)
        (List.length (List.sort_uniq compare keys));
      (* insert-only transactions never update in place *)
      let commits = (Ptm.Stats.get ptm).Ptm.Stats.commits in
      Helpers.check_int "every commit inserted a fresh key" commits (List.length keys))

let test_memcached_values_not_torn () =
  run_with_oracle (Memcached.spec ~items:32) ~threads:4 ~duration_ns:200_000 (fun ptm m ->
      let h = Pstructs.Phashtable.attach ptm (Ptm.root_get ptm 0) in
      List.iter
        (fun (id, item) ->
          let valb = m.Machine.raw_read (item + 1) in
          (* A value is either the setup pattern (id lxor i) or some
             nonce pattern (nonce lxor i); either way consecutive words
             xor to consistent deltas. *)
          let base = m.Machine.raw_read valb in
          let ok = ref true in
          for i = 0 to Memcached.value_words - 1 do
            if m.Machine.raw_read (valb + i) lxor i <> base then ok := false
          done;
          Helpers.check_bool (Printf.sprintf "value %d untorn" id) true !ok)
        (Pstructs.Phashtable.to_alist h))

let test_memcached_sizing () =
  let small = Memcached.items_for_bytes (32 * 1024) in
  let large = Memcached.items_for_bytes (32 * 1024 * 1024) in
  Helpers.check_bool "sizing monotonic" true (large > 100 * small);
  Helpers.check_bool "at least a handful of items" true (small >= 8)

let test_tatp_subscriber_count () =
  let cfg = Memsim.Config.make ~heap_words:(1 lsl 20) ~track_media:false Config.optane_adr in
  let sim = Memsim.Sim.create cfg in
  let m = Memsim.Sim.machine sim in
  ignore sim;
  let ptm = Ptm.create ~max_threads:32 m in
  Tatp.spec.Driver.setup ptm;
  let h = Pstructs.Phashtable.attach ptm (Ptm.root_get ptm 0) in
  Helpers.check_int "population" Tatp.subscribers
    (List.length (Pstructs.Phashtable.to_alist h))

let test_ycsb_mixes_run () =
  List.iter
    (fun mix ->
      let r = quick_run ~duration_ns:120_000 (Ycsb.spec mix) in
      Helpers.check_bool ("ycsb-" ^ Ycsb.mix_name mix ^ " commits") true (r.Driver.commits > 0))
    [ Ycsb.A; Ycsb.B; Ycsb.C; Ycsb.D; Ycsb.E; Ycsb.F ]

let test_ycsb_c_read_only () =
  (* Workload C is 100% reads: no aborts, no stores to record blobs. *)
  let r = quick_run ~threads:4 ~duration_ns:200_000 (Ycsb.spec Ycsb.C) in
  Helpers.check_int "read-only mix never aborts" 0 r.Driver.aborts;
  Helpers.check_int "every commit is read-only" r.Driver.commits
    ((quick_run ~threads:4 ~duration_ns:200_000 (Ycsb.spec Ycsb.C)).Driver.commits)

let test_ycsb_d_inserts_grow_store () =
  run_with_oracle (Ycsb.spec Ycsb.D) ~threads:2 ~duration_ns:300_000 (fun ptm m ->
      let cursor = Ptm.root_get ptm 2 in
      Helpers.check_bool "inserts advanced the cursor" true
        (m.Machine.raw_read cursor > Ycsb.records + 1))

(* Cells with one setup key populate identically: at 1 and 8 threads
   the post-setup heap (digest over every raw word) and the machine
   counters agree.  32 threads widen the PTM's thread table, so that
   cell's key differs. *)
let test_setup_key_same_population () =
  let state c =
    Driver.populate c (fun sim ptm ->
        let m = Ptm.machine ptm in
        let b = Buffer.create (8 * m.Machine.words) in
        for a = 0 to m.Machine.words - 1 do
          Buffer.add_int64_le b (Int64.of_int (m.Machine.raw_read a))
        done;
        (Digest.to_hex (Digest.string (Buffer.contents b)),
         Memsim.Sim.Stats.fields (Memsim.Sim.Stats.get sim)))
  in
  List.iter
    (fun spec ->
      let at threads =
        Driver.cell ~duration_ns:100_000 ~model:Config.optane_adr ~algorithm:Ptm.Redo ~threads spec
      in
      let name = spec.Driver.name in
      Helpers.check_bool (name ^ ": 1 and 8 threads share a key") true
        (Driver.setup_key (at 1) = Driver.setup_key (at 8));
      Alcotest.(check (pair string (list (pair string int))))
        (name ^ ": same post-setup heap and counters") (state (at 1)) (state (at 8));
      Helpers.check_bool (name ^ ": 8 and 32 threads do not") false
        (Driver.setup_key (at 8) = Driver.setup_key (at 32)))
    [ Bank.spec; Memcached.spec ~items:64 ]

let test_experiment_registry_complete () =
  let names = List.map fst Experiments.all in
  List.iter
    (fun required ->
      Helpers.check_bool (required ^ " registered") true (List.mem required names))
    [ "fig3"; "fig4"; "table1"; "table2"; "table3"; "fig6"; "fig7"; "fig8" ]

(* `speedup`'s GC counters regress like its words: 10 % more minor
   collections or promoted words per event is a regression, 10 % fewer
   an improvement, and so is more minor words per collection. *)
let test_regress_gates_gc_pacing () =
  let module J = Workloads.Bench_json in
  let record scale =
    J.Obj
      [ ("minor_collections_per_event", J.Float (6e-05 *. scale));
        ("promoted_words_per_event", J.Float (0.14 *. scale)) ]
  in
  let severities scale =
    List.map
      (fun f -> (f.J.f_path, f.J.f_severity = J.Regression))
      (J.regress ~baseline:(record 1.0) ~current:(record scale) ())
  in
  let both r = [ ("minor_collections_per_event", r); ("promoted_words_per_event", r) ] in
  Alcotest.(check (list (pair string bool))) "10 % more" (both true) (severities 1.1);
  Alcotest.(check (list (pair string bool))) "10 % fewer" (both false) (severities 0.9);
  (* Lost pacing: 64 % fewer collections at the same minor words means
     each one let 2.8 times the words through.  The fall alone reads
     as an improvement; the words per collection make it a regression. *)
  let paced collections =
    J.Obj
      [ ("minor_words_per_event", J.Float 5.3);
        ("minor_collections_per_event", J.Float collections);
        ("minor_words_per_collection", J.Float (5.3 /. collections)) ]
  in
  let findings = J.regress ~baseline:(paced 6e-05) ~current:(paced (6e-05 *. 0.36)) () in
  Alcotest.(check (list (pair string bool))) "64 % fewer collections"
    [ ("minor_collections_per_event", false); ("minor_words_per_collection", true) ]
    (List.map (fun f -> (f.J.f_path, f.J.f_severity = J.Regression)) findings)

(* [Driver.run_cell]'s measured phase on [facade m]: 8 threads for 1 ms.
   Returns everything the run produced but the scheduler's resumes,
   and those apart. *)
let run_on_facade ~facade ~model ~algorithm (spec : Driver.spec) =
  let cfg = Config.make ~heap_words:spec.Driver.heap_words ~track_media:false model in
  Memsim.Sim.with_ (Memsim.Sim.create cfg) @@ fun sim ->
  let ptm = Ptm.create ~algorithm (facade (Memsim.Sim.machine sim)) in
  spec.Driver.setup ptm;
  Memsim.Sim.reset_timing sim;
  Ptm.Stats.reset ptm;
  let root_rng = Repro_util.Rng.create Driver.default_seed in
  let latency = Repro_util.Histogram.create () in
  for tid = 0 to 7 do
    let rng = Repro_util.Rng.split root_rng in
    ignore
      (Memsim.Sim.spawn sim (fun () ->
           let op = spec.Driver.make_op ptm ~tid ~rng in
           while Memsim.Sim.now sim < 1_000_000 do
             let start = Memsim.Sim.now sim in
             op ();
             Repro_util.Histogram.record latency (Memsim.Sim.now sim - start)
           done))
  done;
  Memsim.Sim.run sim;
  let s = Memsim.Sim.Stats.get sim in
  ( ( Memsim.Sim.Stats.fields s,
      Ptm.Stats.get ptm,
      (Memsim.Sim.now sim, Repro_util.Histogram.count latency, Repro_util.Histogram.max_value latency),
      List.map (Repro_util.Histogram.percentile latency) [ 50.0; 90.0; 99.0; 99.9 ],
      (s.Memsim.Sim.Stats.inline_advances, s.Memsim.Sim.Stats.context_switches) ),
    s.Memsim.Sim.Stats.context_switches - s.Memsim.Sim.Stats.settled_waits )

(* The validated load changes how the scheduler serves a read's waits,
   never what the run does: the machine and a facade whose
   [validated_load] is the three plain operations give the same
   machine counters, PTM statistics, latency histogram and
   per-outcome wait counts, and the machine's run resumes its threads
   strictly fewer times.  The undo cell also covers reads after an
   [extend], which load plainly in both. *)
let test_validated_load_same_run () =
  List.iter
    (fun (spec, model, algorithm) ->
      let name = spec.Driver.name ^ " " ^ model.Config.model_name in
      let run facade = run_on_facade ~facade ~model ~algorithm spec in
      let fused, resumes = run Fun.id in
      let plain, plain_resumes = run Helpers.plain_facade in
      Helpers.check_bool (name ^ ": same run") true (fused = plain);
      Helpers.check_bool (name ^ ": fewer resumes") true (resumes < plain_resumes))
    [
      (Btree_bench.insert_only, Config.optane_adr, Ptm.Redo);
      (Ycsb.spec Ycsb.B, Config.optane_eadr, Ptm.Redo);
      (Btree_bench.insert_only, Config.optane_adr, Ptm.Undo);
    ]

let test_experiment_shapes () =
  (* A micro version of the headline claims, as a regression guard:
     redo >= undo (TPCC), eADR > ADR, DRAM > Optane. *)
  let tput ~model ~algorithm =
    (quick_run ~model ~algorithm ~threads:4 ~duration_ns:400_000 (Tpcc.spec Tpcc.Hash))
      .Driver.txs_per_sec
  in
  let dram_r = tput ~model:Config.dram_eadr ~algorithm:Ptm.Redo in
  let optane_adr_r = tput ~model:Config.optane_adr ~algorithm:Ptm.Redo in
  let optane_adr_u = tput ~model:Config.optane_adr ~algorithm:Ptm.Undo in
  let optane_eadr_r = tput ~model:Config.optane_eadr ~algorithm:Ptm.Redo in
  Helpers.check_bool "redo beats undo under ADR" true (optane_adr_r > optane_adr_u);
  Helpers.check_bool "eADR beats ADR" true (optane_eadr_r > optane_adr_r);
  Helpers.check_bool "DRAM beats Optane" true (dram_r > optane_eadr_r)

let suite =
  [
    Alcotest.test_case "all workloads commit" `Quick test_every_workload_commits;
    Alcotest.test_case "all model/alg combos run" `Slow test_every_workload_all_models;
    Alcotest.test_case "driver determinism" `Quick test_driver_deterministic;
    Alcotest.test_case "validated load: same run as the plain operations" `Quick
      test_validated_load_same_run;
    Alcotest.test_case "seed sensitivity" `Quick test_driver_seed_changes_run;
    Alcotest.test_case "threads scale" `Quick test_threads_increase_throughput;
    Alcotest.test_case "tpcc district oracle" `Quick test_tpcc_district_oracle;
    Alcotest.test_case "vacation invariant" `Quick test_vacation_resource_invariant;
    Alcotest.test_case "btree insert-only uniqueness" `Quick test_btree_insert_only_unique_keys;
    Alcotest.test_case "memcached values untorn" `Quick test_memcached_values_not_torn;
    Alcotest.test_case "memcached sizing" `Quick test_memcached_sizing;
    Alcotest.test_case "tatp population" `Quick test_tatp_subscriber_count;
    Alcotest.test_case "ycsb mixes run" `Quick test_ycsb_mixes_run;
    Alcotest.test_case "ycsb C read-only" `Quick test_ycsb_c_read_only;
    Alcotest.test_case "ycsb D inserts" `Quick test_ycsb_d_inserts_grow_store;
    Alcotest.test_case "experiment registry" `Quick test_experiment_registry_complete;
    Alcotest.test_case "setup key: one population" `Quick test_setup_key_same_population;
    Alcotest.test_case "regress gates GC pacing" `Quick test_regress_gates_gc_pacing;
    Alcotest.test_case "headline shapes" `Slow test_experiment_shapes;
  ]
