(* Crash-point exploration harness: the durable-linearizability matrix,
   the missing-fence expected-failure meta-test, recovery idempotence,
   run determinism, and the crash-leak severity regression. *)

open Pstm
module Config = Memsim.Config
module Sim = Memsim.Sim
module Engine = Crashtest.Engine
module Scenarios = Crashtest.Scenarios

let seed = 1

(* ---------- the {Redo, Undo} x durability-domain matrix ---------- *)

let matrix_models =
  [ Config.optane_adr; Config.optane_eadr; Config.pdram; Config.pdram_lite ]

let test_cell scenario model algorithm () =
  let report = Engine.explore ~points:50 ~seed ~model ~algorithm scenario in
  Helpers.check_bool
    (Format.asprintf "%a" Engine.pp_report report)
    true (Engine.ok report);
  Helpers.check_bool "probed at least 50 instants" true (report.Engine.tested >= 50)

let matrix_cases =
  (* Rotate scenarios through the cells so every durability domain and
     both algorithms see >= 50 crash points, and every scenario runs
     under at least two domains. *)
  let scenarios =
    [| Scenarios.bank (); Scenarios.counters (); Scenarios.btree (); Scenarios.alloc_churn () |]
  in
  List.concat
    (List.mapi
       (fun i model ->
         List.mapi
           (fun j algorithm ->
             let scenario = scenarios.(((2 * i) + j) mod Array.length scenarios) in
             let name =
               Printf.sprintf "matrix %s/%s/%s" scenario.Engine.name
                 model.Config.model_name
                 (Ptm.algorithm_name algorithm)
             in
             Alcotest.test_case name `Slow (test_cell scenario model algorithm))
           [ Ptm.Redo; Ptm.Undo ])
       matrix_models)

(* ---------- both flush schedules at every crash point ---------- *)

(* The matrix above runs bank and btree with coalescing on (the
   default), so the batched-persist pipeline's crash points are already
   swept.  These cells sweep the same workloads on the naive per-entry
   schedule under ADR — the two disciplines reach "durable" at
   different instants, so each needs its own exploration. *)
let coalescing_cases =
  List.concat_map
    (fun scenario ->
      List.map
        (fun algorithm ->
          let name =
            Printf.sprintf "matrix %s/%s/%s" scenario.Engine.name
              Config.optane_adr.Config.model_name
              (Ptm.algorithm_name algorithm)
          in
          Alcotest.test_case name `Slow (test_cell scenario Config.optane_adr algorithm))
        [ Ptm.Redo; Ptm.Undo ])
    [ Scenarios.bank ~coalesce:false (); Scenarios.btree ~coalesce:false () ]

(* ---------- MOD structures: buffered durability cells ---------- *)

(* The MOD scenarios crash inside the shadow-copy sweep and at the
   root-swap instant (every instant between the first shadow store and
   the publish flush is a candidate), under the `Buffered dlin
   criterion.  ADR is where the single-fence protocol actually orders
   anything; eADR is the crossover domain (no flushes at all); the
   Redo cell runs the same structures as a strict-durability
   differential. *)
let mod_cases =
  [
    Alcotest.test_case "matrix mod-btree/optane-adr/mod" `Slow
      (test_cell (Scenarios.mod_btree ()) Config.optane_adr Ptm.Mod);
    Alcotest.test_case "matrix mod-btree/optane-eadr/mod" `Slow
      (test_cell (Scenarios.mod_btree ()) Config.optane_eadr Ptm.Mod);
    Alcotest.test_case "matrix mod-hash/optane-adr/mod" `Slow
      (test_cell (Scenarios.mod_hash ()) Config.optane_adr Ptm.Mod);
    Alcotest.test_case "matrix mod-hash/pdram-lite/mod" `Slow
      (test_cell (Scenarios.mod_hash ()) Config.pdram_lite Ptm.Mod);
    Alcotest.test_case "matrix mod-btree/transient-cache/mod" `Slow
      (test_cell (Scenarios.mod_btree ()) Config.transient_cache Ptm.Mod);
    Alcotest.test_case "matrix mod-btree/optane-adr/redo" `Slow
      (test_cell (Scenarios.mod_btree ()) Config.optane_adr Ptm.Redo);
  ]

(* ---------- the KV service's crash contracts ---------- *)

(* kv-batch sweeps the coalesced multi-set commit (all-or-nothing plus
   the batch marker); kv-xshard sweeps the window between two shards'
   commits (markers must stay within one op, in commit order).  The
   full matrix for both runs under @crashtest; these cells keep one
   redo and one undo probe of each in tier 1. *)
let kvserve_cases =
  [
    Alcotest.test_case "matrix kv-batch/optane-adr/redo" `Slow
      (test_cell (Scenarios.kv_batch ()) Config.optane_adr Ptm.Redo);
    Alcotest.test_case "matrix kv-batch/pdram-lite/undo" `Slow
      (test_cell (Scenarios.kv_batch ()) Config.pdram_lite Ptm.Undo);
    Alcotest.test_case "matrix kv-xshard/optane-adr/undo" `Slow
      (test_cell (Scenarios.kv_xshard ()) Config.optane_adr Ptm.Undo);
    Alcotest.test_case "matrix kv-xshard/optane-eadr/redo" `Slow
      (test_cell (Scenarios.kv_xshard ()) Config.optane_eadr Ptm.Redo);
  ]

(* ---------- the two extension durability domains ---------- *)

(* transient-cache (whole-cache-persistence, arXiv 2210.17377): caches
   survive the crash, so like eADR nothing needs flushing; HTM-commit
   (arXiv 1806.01108): an ADR-class domain whose publish hardens a
   hardware transaction's write set as one unit, making the Htm
   algorithm legal under a flush-requiring domain.  Both get their own
   crash sweeps, including the Htm algorithm itself on HTM-commit. *)
let extension_domain_cases =
  [
    Alcotest.test_case "matrix bank/transient-cache/redo" `Slow
      (test_cell (Scenarios.bank ()) Config.transient_cache Ptm.Redo);
    Alcotest.test_case "matrix counters/transient-cache/undo" `Slow
      (test_cell (Scenarios.counters ()) Config.transient_cache Ptm.Undo);
    Alcotest.test_case "matrix bank/htm-commit/htm" `Slow
      (test_cell (Scenarios.bank ()) Config.htm_commit Ptm.Htm);
    Alcotest.test_case "matrix counters/htm-commit/redo" `Slow
      (test_cell (Scenarios.counters ()) Config.htm_commit Ptm.Redo);
    Alcotest.test_case "matrix kv-incr/optane-adr/redo" `Slow
      (test_cell (Scenarios.kv_incr ()) Config.optane_adr Ptm.Redo);
    Alcotest.test_case "matrix kv-incr/htm-commit/htm" `Slow
      (test_cell (Scenarios.kv_incr ()) Config.htm_commit Ptm.Htm);
  ]

(* ---------- expected failure: ADR without fences ---------- *)

(* Table III's broken variant: clwb without sfence leaves write-backs
   racing in the interleaved WPQ.  The harness must *catch* it — an
   all-pass report here means the oracle is blind. *)
let test_nofence algorithm () =
  let scenario = Scenarios.bank () in
  let report =
    Engine.explore ~points:80 ~seed ~model:Config.optane_adr_nofence ~algorithm scenario
  in
  Helpers.check_bool "oracle detects the missing fences" false (Engine.ok report);
  match report.Engine.failures with
  | [] -> Alcotest.fail "report not ok but carries no failure record"
  | f :: _ ->
    Helpers.check_bool "minimal crash time is positive" true (f.Engine.min_crash_at > 0);
    Helpers.check_bool "shrinking did not grow the crash time" true
      (f.Engine.min_crash_at <= f.Engine.crash_at);
    Helpers.check_bool "failure explains itself" true (String.length f.Engine.reason > 0);
    (* The replay line must reproduce the violation in one command. *)
    let spec =
      match String.split_on_char '\'' f.Engine.replay with
      | _ :: spec :: _ -> spec
      | _ -> Alcotest.fail ("unparseable replay line: " ^ f.Engine.replay)
    in
    Helpers.check_bool "clean run's replay carries no inject" true
      (List.length (String.split_on_char ':' spec) = 5);
    (match Scenarios.replay spec with
    | Error msg -> Alcotest.fail ("replay spec does not resolve: " ^ msg)
    | Ok (cell, replay_seed, crash_at) ->
      Helpers.check_int "replay seed matches report" report.Engine.seed replay_seed;
      Helpers.check_bool "replay names the reported cell" true
        (Engine.names cell = Engine.(report.scenario, report.model, report.algorithm));
      let result = Engine.probe ~seed:replay_seed ~crash_at cell in
      Helpers.check_bool "replay reproduces the violation" true (Result.is_error result));
    (* The failure must come with a telemetry capture of the minimal
       failing re-run, including a profile of the post-crash recovery. *)
    (match f.Engine.telemetry_dir with
    | None -> Alcotest.fail "failure carries no telemetry dump"
    | Some dir ->
      List.iter
        (fun file ->
          Helpers.check_bool (Printf.sprintf "telemetry dump has %s" file) true
            (Sys.file_exists (Filename.concat dir file)))
        [ "profile.jsonl"; "series.csv"; "trace.json"; "recovery.jsonl" ])

(* ---------- mutation tests: injected ordering bugs must be caught ---------- *)

(* Each case arms one deliberate PTM ordering bug (Ptm.inject) on a
   (scenario, model, algorithm) cell where the bug's durability hole is
   reachable, and requires the crash sweep to reject it — a checker
   that never fails is untested.  The failure must round-trip: the
   printed replay line carries the inject name, reproduces the
   violation, and the telemetry dump includes the dlin counterexample
   next to the other artifacts. *)
let test_mutation ~inject ~scenario ~model ~algorithm () =
  let report = Engine.explore ~points:80 ~seed ~inject ~model ~algorithm scenario in
  Helpers.check_bool
    (Printf.sprintf "checker rejects %s on %s/%s/%s" (Ptm.inject_name inject)
       scenario.Engine.name model.Config.model_name
       (Ptm.algorithm_name algorithm))
    false (Engine.ok report);
  match report.Engine.failures with
  | [] -> Alcotest.fail "report not ok but carries no failure record"
  | f :: _ ->
    Helpers.check_bool "failure explains itself" true (String.length f.Engine.reason > 0);
    let spec =
      match String.split_on_char '\'' f.Engine.replay with
      | _ :: spec :: _ -> spec
      | _ -> Alcotest.fail ("unparseable replay line: " ^ f.Engine.replay)
    in
    (match String.split_on_char ':' spec with
    | [ _; _; _; _; _; inj ] ->
      Alcotest.(check string) "replay line names the injected bug" (Ptm.inject_name inject) inj
    | _ -> Alcotest.fail ("replay spec lost the inject field: " ^ spec));
    (match Scenarios.replay spec with
    | Ok (cell, replay_seed, crash_at) ->
      let result = Engine.probe ~seed:replay_seed ~crash_at cell in
      Helpers.check_bool "replay reproduces the violation" true (Result.is_error result)
    | Error msg -> Alcotest.fail ("replay spec does not resolve: " ^ msg));
    (match f.Engine.telemetry_dir with
    | None -> Alcotest.fail "failure carries no telemetry dump"
    | Some dir ->
      Helpers.check_bool "dlin counterexample rides the telemetry dump" true
        (Sys.file_exists (Filename.concat dir "dlin.jsonl")))

let mutation_cases =
  [
    (* Elided fences leave the redo log racing its status word in the
       WPQ — the same hole as the nofence domain, now as a code bug. *)
    Alcotest.test_case "inject skip-fence is caught (bank/adr/redo)" `Slow
      (test_mutation ~inject:Ptm.Skip_fence ~scenario:(Scenarios.bank ())
         ~model:Config.optane_adr ~algorithm:Ptm.Redo);
    (* Status raised before the log persists: recovery replays stale
       media log entries; counters' 8-slot write set spans three log
       lines, so the stale tail diverges the slots. *)
    Alcotest.test_case "inject reorder-log-apply is caught (counters/adr/redo)" `Slow
      (test_mutation ~inject:Ptm.Reorder_log_apply ~scenario:(Scenarios.counters ())
         ~model:Config.optane_adr ~algorithm:Ptm.Redo);
    (* The coalesced write-back sweep drops its last gathered line —
       bank's per-thread sequence cell — so a committed transfer's
       sequence write never becomes durable. *)
    Alcotest.test_case "inject tear-write is caught (bank/adr/undo)" `Slow
      (test_mutation ~inject:Ptm.Tear_write ~scenario:(Scenarios.bank ())
         ~model:Config.optane_adr ~algorithm:Ptm.Undo);
    (* MOD's one fence stands between the shadow sweep and the root
       swap; eliding it publishes a root whose shadow nodes are still
       racing the WPQ, so recovery walks into unswept memory. *)
    Alcotest.test_case "inject skip-fence is caught (mod-btree/adr/mod)" `Slow
      (test_mutation ~inject:Ptm.Skip_fence ~scenario:(Scenarios.mod_btree ())
         ~model:Config.optane_adr ~algorithm:Ptm.Mod);
    (* A torn root swap lands only the low byte of the new root on
       media (the cache keeps the full pointer, so only recovery can
       see it) — the recovered root points into garbage. *)
    Alcotest.test_case "inject tear-write is caught (mod-hash/adr/mod)" `Slow
      (test_mutation ~inject:Ptm.Tear_write ~scenario:(Scenarios.mod_hash ())
         ~model:Config.optane_adr ~algorithm:Ptm.Mod);
    (* Root swap issued before the shadow sweep: the published root
       races every shadow line instead of following them. *)
    Alcotest.test_case "inject reorder-log-apply is caught (mod-btree/adr/mod)" `Slow
      (test_mutation ~inject:Ptm.Reorder_log_apply ~scenario:(Scenarios.mod_btree ())
         ~model:Config.optane_adr ~algorithm:Ptm.Mod);
  ]

(* ---------- recovery idempotence ---------- *)

let test_recovery_convergence ?(model = Config.optane_adr) algorithm () =
  let scenario = Scenarios.bank () in
  let probe = Engine.explore ~points:1 ~seed ~model ~algorithm scenario in
  let t_final = probe.Engine.final_time in
  List.iter
    (fun eighth ->
      let crash_at = max 1 (t_final * eighth / 8) in
      match Engine.recovery_convergence ~model ~algorithm ~seed ~crash_at scenario with
      | Ok () -> ()
      | Error e ->
        Alcotest.fail (Printf.sprintf "crash_at=%dns (%d/8 of run): %s" crash_at eighth e))
    [ 1; 2; 3; 5; 7 ]

(* ---------- determinism ---------- *)

let run_reference_once () =
  let scenario = Scenarios.bank () in
  let cfg =
    Config.make ~nvm_channels:4 ~heap_words:scenario.Engine.heap_words ~track_media:true
      Config.optane_adr
  in
  let sim = Sim.create cfg in
  let m = Sim.machine sim in
  let ptm =
    Ptm.create ~algorithm:Ptm.Redo ~max_threads:scenario.Engine.threads
      ~log_words_per_thread:scenario.Engine.log_words_per_thread m
  in
  scenario.Engine.prepare ptm;
  let inst = scenario.Engine.fresh ~seed:42 in
  for tid = 0 to scenario.Engine.threads - 1 do
    ignore (Sim.spawn sim (fun () -> inst.Engine.worker ~tid ptm) : int)
  done;
  Sim.run sim;
  let heap = Array.init scenario.Engine.heap_words m.Machine.raw_read in
  (Sim.now sim, Sim.Stats.get sim, Ptm.Stats.get ptm, heap)

let test_determinism () =
  let t1, s1, p1, h1 = run_reference_once () in
  let t2, s2, p2, h2 = run_reference_once () in
  Helpers.check_int "final virtual time" t1 t2;
  Helpers.check_bool "sim stats bit-identical" true (s1 = s2);
  Helpers.check_bool "ptm stats bit-identical" true (p1 = p2);
  Helpers.check_bool "final heap bit-identical" true (h1 = h2)

(* ---------- crash-leaked arenas are warnings, not corruption ---------- *)

(* [Alloc.claim_chunk] durably advances the high-water mark before the
   arena header's flush completes; a crash in between strands a chunk
   with no recognizable header.  The checker must report that as a
   Warning (bounded leak, by design) and [is_clean] must hold so
   recovery proceeds. *)
let test_crash_leak_is_warning () =
  let probe crash_at =
    let sim, _m, ptm = Helpers.ptm_fixture ~model:Config.optane_adr ~max_threads:1 () in
    Sim.persist_all sim;
    ignore
      (Sim.spawn sim (fun () -> Ptm.atomic ptm (fun tx -> ignore (Ptm.alloc tx 600 : int)))
        : int);
    Sim.run ~crash_at sim;
    if not (Sim.crashed sim) then None
    else begin
      let _sim', _m', ptm' = Helpers.reboot_and_recover sim in
      Some (Pmem.Check.run (Ptm.region ptm'))
    end
  in
  let rec hunt t =
    if t > 2000 then Alcotest.fail "no crash point leaked an arena within 2000ns"
    else
      match probe t with
      | None -> Alcotest.fail "run completed before any leak window was found"
      | Some rep when rep.Pmem.Check.leaked_arenas > 0 ->
        Helpers.check_bool "region is clean after recovery despite the leak" true
          (Pmem.Check.is_clean rep);
        List.iter
          (fun f ->
            Helpers.check_bool
              (Printf.sprintf "finding %S is not corruption" f.Pmem.Check.what)
              true
              (f.Pmem.Check.severity <> Pmem.Check.Corruption))
          rep.Pmem.Check.findings
      | Some _ -> hunt (t + 1)
  in
  hunt 1

(* ---------- the oracle alone judges ---------- *)

let scenario_fixture ?algorithm scenario =
  let sim, _m, ptm =
    Helpers.ptm_fixture ?algorithm ~heap_words:scenario.Engine.heap_words
      ~max_threads:scenario.Engine.threads
      ~log_words_per_thread:scenario.Engine.log_words_per_thread ()
  in
  scenario.Engine.prepare ptm;
  let inst = scenario.Engine.fresh ~seed in
  match inst.Engine.oracle with
  | None -> Alcotest.fail (scenario.Engine.name ^ " has no oracle")
  | Some oracle -> (sim, ptm, inst, oracle)

(* A marker no abstract state can hold is recovered data the oracle
   must reject with a replayable dump, not an exception escaping
   [Ptm.atomic] and aborting the sweep. *)
let test_torn_marker scenario marker () =
  let sim, ptm, _inst, oracle = scenario_fixture scenario in
  let store = Kvserve.Store.attach ptm in
  Ptm.atomic ptm (fun tx -> Kvserve.Store.set tx store ~key:marker ~flags:0 "x1y");
  match oracle ~crashed:true sim ptm with
  | Ok () -> Alcotest.fail "torn marker accepted"
  | Error f ->
    Helpers.check_bool "failure explains itself" true (String.length f.Engine.fail_reason > 0);
    Helpers.check_bool "failure carries a counterexample dump" true
      (Option.is_some f.Engine.counterexample)

(* A crash-free run lost nothing, so its oracle must demand every
   operation, while after a crash a MOD run may stop at any
   real-time-closed cut.  One thread makes its last script op the last
   operation of the whole history; op 7 inserts key 1007. *)
let test_mod_clean_run_is_strict () =
  let scenario = Scenarios.mod_btree ~threads:1 ~ops:7 () in
  let sim, ptm, inst, oracle = scenario_fixture ~algorithm:Ptm.Mod scenario in
  Helpers.run_workers sim 1 (fun tid -> inst.Engine.worker ~tid ptm);
  let t = Pstructs.Mod_bptree.attach ptm (Ptm.root_get ptm 0) in
  Ptm.atomic ptm (fun tx -> ignore (Pstructs.Mod_bptree.remove tx t 1007 : bool));
  Helpers.check_bool "crash-free run missing its last op is rejected" true
    (Result.is_error (oracle ~crashed:false sim ptm));
  Helpers.check_bool "the same state is a buffered prefix after a crash" true
    (Result.is_ok (oracle ~crashed:true sim ptm))

let oracle_cases =
  [
    Alcotest.test_case "torn kv-batch marker fails typed" `Quick
      (test_torn_marker (Scenarios.kv_batch ()) "m0");
    Alcotest.test_case "torn kv-xshard marker fails typed" `Quick
      (test_torn_marker (Scenarios.kv_xshard ()) "ma0");
    Alcotest.test_case "mod crash-free run is judged strict" `Quick test_mod_clean_run_is_strict;
  ]

(* ---------- replay round trip ---------- *)

(* A replay line carries only the scenario name, so [find] must rebuild
   exactly the scenario the sweep ran, sizes included, and every cell
   of the matrix, armed or not, must come back from its replay line as
   the same cell.  A replay line whose inject belongs to the other
   runtime, or that names no algorithm or inject, is a usage error. *)
let test_find_round_trip () =
  let sizes (s : Engine.scenario) = (s.threads, s.heap_words, s.log_words_per_thread, s.coalesce) in
  List.iter
    (fun (s : Engine.scenario) ->
      Helpers.check_bool (s.name ^ " round-trips through find") true
        (sizes s = sizes (Scenarios.find s.name)))
    (Scenarios.all ());
  List.iter
    (fun (s : Engine.fams_scenario) ->
      Helpers.check_int (s.f_name ^ " round-trips through fams_find") s.f_words
        (Scenarios.fams_find s.f_name).f_words)
    (Scenarios.fams_all ());
  let round_trip suffix cell =
    let scenario, model, algorithm = Engine.names cell in
    let line = Printf.sprintf "%s:%s:%s:7:12345%s" scenario model algorithm suffix in
    match Scenarios.replay line with
    | Ok (back, 7, 12345) ->
      Helpers.check_bool (line ^ " resolves to its cell") true
        (Engine.names back = Engine.names cell)
    | Ok _ -> Alcotest.fail (line ^ ": seed or instant lost")
    | Error msg -> Alcotest.fail (line ^ ": " ^ msg)
  in
  let cells = Scenarios.matrix () in
  Helpers.check_int "matrix cells" 142 (List.length cells);
  List.iter (round_trip "") cells;
  List.iter (round_trip ":tear-write") (Scenarios.matrix ~inject:Ptm.Tear_write ());
  List.iter
    (fun line ->
      Helpers.check_bool (line ^ " is a usage error") true
        (Result.is_error (Scenarios.replay line)))
    [
      "fams-bank:optane-adr:fams-line:1:5000:skip-fence";
      "bank:optane-adr:redo:1:5000:skip-publish-fence";
      "bank:optane-adr:rado:1:5000";
      "bank:optane-adr:redo:1:5000:skip-everything";
    ]

(* ---------- pinned reference runs ---------- *)

(* @crashtest is not in runtest, so each scenario's crash-free
   reference run is pinned here: its final virtual time and candidate
   count move whenever the scenario issues a different operation or
   issues one at a different instant.  The constants were recorded
   before the scenarios moved onto one shared constructor. *)
let reference_runs =
  [
    ("bank", Ptm.Redo, 13125, 1794);
    ("counters", Ptm.Redo, 32315, 4236);
    ("btree", Ptm.Redo, 72711, 5894);
    ("mod-btree", Ptm.Mod, 44166, 1082);
    ("mod-hash", Ptm.Mod, 79247, 2189);
    ("alloc", Ptm.Redo, 13637, 2478);
    ("kv-batch", Ptm.Redo, 204976, 25940);
    ("kv-xshard", Ptm.Redo, 91091, 11198);
    ("kv-incr", Ptm.Redo, 14734, 1024);
    ("bank-naive", Ptm.Redo, 16823, 2560);
    ("btree-naive", Ptm.Redo, 137885, 8507);
  ]

let check_reference name (r : Engine.report) ~final_time ~candidates =
  Helpers.check_int (name ^ " final virtual time") final_time r.final_time;
  Helpers.check_int (name ^ " candidate instants") candidates r.candidates

let test_reference_runs () =
  Helpers.check_int "every scenario pinned" (List.length (Scenarios.all ()))
    (List.length reference_runs);
  List.iter
    (fun (name, algorithm, final_time, candidates) ->
      Engine.explore ~points:1 ~seed ~model:Config.optane_adr ~algorithm (Scenarios.find name)
      |> check_reference name ~final_time ~candidates)
    reference_runs;
  Engine.fams_cell ~model:Config.optane_eadr ~granularity:Fams.Line
    (Scenarios.fams_find "fams-bank")
  |> Engine.sweep ~points:1 ~seed
  |> check_reference "fams-bank" ~final_time:84714 ~candidates:6127

let suite =
  matrix_cases @ coalescing_cases @ mod_cases @ kvserve_cases @ extension_domain_cases
  @ mutation_cases @ oracle_cases
  @ [
      Alcotest.test_case "nofence-adr is caught (redo)" `Slow (test_nofence Ptm.Redo);
      Alcotest.test_case "nofence-adr is caught (undo)" `Slow (test_nofence Ptm.Undo);
      Alcotest.test_case "recovery converges under re-crash (redo)" `Slow
        (test_recovery_convergence Ptm.Redo);
      Alcotest.test_case "recovery converges under re-crash (undo)" `Slow
        (test_recovery_convergence Ptm.Undo);
      Alcotest.test_case "recovery converges under re-crash (transient-cache)" `Slow
        (test_recovery_convergence ~model:Config.transient_cache Ptm.Redo);
      Alcotest.test_case "same config+seed is bit-identical" `Quick test_determinism;
      Alcotest.test_case "crash-leaked arena is a warning" `Quick test_crash_leak_is_warning;
      Alcotest.test_case "scenarios round-trip through find" `Quick test_find_round_trip;
      Alcotest.test_case "scenario reference runs pinned" `Quick test_reference_runs;
    ]
