(* Per-algorithm commit bookkeeping, pinned to exact counts, and the
   configuration checks that must run before a runtime touches the
   image. *)

open Pstm
module Sim = Memsim.Sim
module Config = Memsim.Config

(* ---------- commit bookkeeping ---------- *)

(* One fixed single-thread script: a read-only transaction, a 1-word
   transaction, one spanning three cache lines, a user-exception abort,
   a MOD-shaped shadow update (fresh node plus one home word) and a
   transaction writing two home words (MOD's redo fallback).  Returns
   the counters the commit pipeline owns, as one comparable line. *)
let bookkeeping ~model ~algorithm ~coalesce =
  let sim, m = Helpers.sim_machine ~model () in
  let ptm = Ptm.create ~algorithm ~coalesce ~max_threads:4 ~log_words_per_thread:1024 m in
  let base = Ptm.atomic ptm (fun tx -> Ptm.alloc tx 32) in
  Ptm.Stats.reset ptm;
  let p = Profile.create m in
  Ptm.set_profiler ptm (Some p);
  let before = Sim.Stats.get sim in
  ignore (Ptm.atomic ptm (fun tx -> Ptm.read tx base + Ptm.read tx (base + 8)));
  Ptm.atomic ptm (fun tx -> Ptm.write tx base 1);
  Ptm.atomic ptm (fun tx ->
      Ptm.write tx (base + 1) 2;
      Ptm.write tx (base + 9) 3;
      Ptm.write tx (base + 17) 4);
  (try
     Ptm.atomic ptm (fun tx ->
         Ptm.write tx (base + 2) 5;
         failwith "user abort")
   with Failure _ -> ());
  Ptm.atomic ptm (fun tx ->
      let node = Ptm.alloc tx 16 in
      for i = 0 to 15 do
        Ptm.write tx (node + i) (100 + i)
      done;
      Ptm.write tx (base + 3) node);
  Ptm.atomic ptm (fun tx ->
      Ptm.write tx (base + 4) 6;
      Ptm.write tx (base + 12) 7);
  let after = Sim.Stats.get sim in
  let s = Ptm.Stats.get ptm in
  let saved f = List.fold_left (fun acc tid -> acc + f p ~tid) 0 (Profile.tids p) in
  Printf.sprintf
    "commits=%d aborts=%d ro=%d max_ws=%d max_log_lines=%d fences_saved=%d flushes_saved=%d \
     clwbs=%d sfences=%d"
    s.Ptm.Stats.commits s.Ptm.Stats.aborts s.Ptm.Stats.read_only_commits s.Ptm.Stats.max_write_set
    s.Ptm.Stats.max_log_lines (saved Profile.fences_saved) (saved Profile.flushes_saved)
    (after.Sim.Stats.clwbs - before.Sim.Stats.clwbs)
    (after.Sim.Stats.sfences - before.Sim.Stats.sfences)

let bookkeeping_cells =
  let adr = Config.optane_adr and eadr = Config.optane_eadr in
  [
    ( Ptm.Redo,
      adr,
      true,
      "commits=5 aborts=1 ro=1 max_ws=18 max_log_lines=5 \
       fences_saved=44 flushes_saved=33 clwbs=27 sfences=16" );
    ( Ptm.Redo,
      adr,
      false,
      "commits=5 aborts=1 ro=1 max_ws=18 max_log_lines=5 \
       fences_saved=0 flushes_saved=0 clwbs=60 sfences=60" );
    ( Ptm.Redo,
      eadr,
      true,
      "commits=5 aborts=1 ro=1 max_ws=18 max_log_lines=5 \
       fences_saved=0 flushes_saved=0 clwbs=0 sfences=0" );
    ( Ptm.Undo,
      adr,
      true,
      "commits=5 aborts=1 ro=1 max_ws=18 max_log_lines=5 \
       fences_saved=20 flushes_saved=14 clwbs=56 sfences=50" );
    ( Ptm.Undo,
      adr,
      false,
      "commits=5 aborts=1 ro=1 max_ws=18 max_log_lines=5 \
       fences_saved=0 flushes_saved=0 clwbs=70 sfences=70" );
    ( Ptm.Undo,
      eadr,
      true,
      "commits=5 aborts=1 ro=1 max_ws=18 max_log_lines=5 \
       fences_saved=0 flushes_saved=0 clwbs=0 sfences=0" );
    ( Ptm.Mod,
      adr,
      true,
      "commits=5 aborts=1 ro=1 max_ws=18 max_log_lines=1 \
       fences_saved=25 flushes_saved=18 clwbs=17 sfences=10" );
    ( Ptm.Mod,
      adr,
      false,
      "commits=5 aborts=1 ro=1 max_ws=18 max_log_lines=1 \
       fences_saved=0 flushes_saved=0 clwbs=35 sfences=18" );
    ( Ptm.Mod,
      eadr,
      true,
      "commits=5 aborts=1 ro=1 max_ws=18 max_log_lines=1 \
       fences_saved=0 flushes_saved=0 clwbs=0 sfences=0" );
    ( Ptm.Htm,
      eadr,
      true,
      "commits=5 aborts=1 ro=1 max_ws=18 max_log_lines=0 \
       fences_saved=0 flushes_saved=0 clwbs=0 sfences=0" );
  ]

let bookkeeping_cases =
  List.map
    (fun (algorithm, model, coalesce, expected) ->
      let name =
        Printf.sprintf "bookkeeping: %s/%s/%s" (Ptm.algorithm_name algorithm)
          model.Config.model_name
          (if coalesce then "coalesced" else "naive")
      in
      Alcotest.test_case name `Quick (fun () ->
          Alcotest.(check string) name expected (bookkeeping ~model ~algorithm ~coalesce)))
    bookkeeping_cells

(* ---------- configuration checks run first ---------- *)

let heap_snapshot (m : Machine.t) = Array.init m.Machine.words m.Machine.raw_read

(* Undo-active log status, as recovery reads it. *)
let status_undo_active = 2

(* A rejected [recover] must leave the crashed image exactly as it
   found it: no log replay, no rollback, no allocator rebuild. *)
let test_rejected_recover_leaves_image () =
  let sim, _, ptm = Helpers.ptm_fixture ~model:Config.optane_adr ~algorithm:Ptm.Undo () in
  let threads = 4 and words = 12 in
  let blocks = Array.init threads (fun _ -> Ptm.atomic ptm (fun tx -> Ptm.alloc tx words)) in
  Sim.persist_all sim;
  Helpers.run_workers ~crash_at:40_000 sim threads (fun tid ->
      for v = 1 to 1_000_000 do
        Ptm.atomic ptm (fun tx ->
            for i = 0 to words - 1 do
              Ptm.write tx (blocks.(tid) + i) v
            done)
      done);
  let sim' = Sim.reboot sim in
  let m' = Sim.machine sim' in
  let reg = Pmem.Region.attach m' in
  let active =
    List.filter
      (fun tid -> m'.Machine.raw_read (Pmem.Region.log_base reg ~tid) = status_undo_active)
      (List.init (Pmem.Region.max_threads reg) Fun.id)
  in
  Helpers.check_bool "precondition: an undo log is active" true (active <> []);
  let image = heap_snapshot m' in
  (match Ptm.recover ~algorithm:Ptm.Htm m' with
  | _ -> Alcotest.fail "HTM recovery on ADR accepted"
  | exception Invalid_argument _ -> ());
  Helpers.check_bool "rejected recover left the image untouched" true (heap_snapshot m' = image);
  (match Ptm.recover ~orec_bits:30 m' with
  | _ -> Alcotest.fail "oversized orec table accepted"
  | exception Invalid_argument _ -> ());
  Helpers.check_bool "rejected orec table left the image untouched" true
    (heap_snapshot m' = image);
  let ptm' = Ptm.recover ~algorithm:Ptm.Undo m' in
  (match Ptm.last_recovery ptm' with
  | Some r ->
    Helpers.check_bool "undo rolled back" true (r.Ptm.Recovery_report.entries_rolled_back > 0)
  | None -> Alcotest.fail "no recovery report");
  Array.iter
    (fun block ->
      let first = m'.Machine.raw_read block in
      for i = 1 to words - 1 do
        Helpers.check_int "block written atomically" first (m'.Machine.raw_read (block + i))
      done)
    blocks

(* A rejected [create] must not format the region first. *)
let test_rejected_create_leaves_image () =
  let _, m = Helpers.sim_machine ~model:Config.optane_adr () in
  let image = heap_snapshot m in
  let create = Ptm.create ~max_threads:8 ~log_words_per_thread:1024 in
  (match create ~algorithm:Ptm.Htm m with
  | _ -> Alcotest.fail "HTM on ADR accepted"
  | exception Invalid_argument _ -> ());
  (match create ~orec_bits:30 m with
  | _ -> Alcotest.fail "oversized orec table accepted"
  | exception Invalid_argument _ -> ());
  Helpers.check_bool "rejected create left the image untouched" true (heap_snapshot m = image)

(* ---------- algorithm names ---------- *)

let test_algorithm_names_round_trip () =
  Helpers.check_int "four algorithms" 4 (List.length Ptm.algorithms);
  List.iter
    (fun a ->
      let name = Ptm.algorithm_name a in
      Helpers.check_bool (name ^ " round-trips") true (Ptm.algorithm_of_name name = Some a))
    Ptm.algorithms;
  List.iter
    (fun name -> Helpers.check_bool (name ^ " is unknown") true (Ptm.algorithm_of_name name = None))
    [ ""; "REDO"; "fams-line"; "redo " ]

let suite =
  bookkeeping_cases
  @ [
      Alcotest.test_case "algorithm names round-trip" `Quick test_algorithm_names_round_trip;
      Alcotest.test_case "rejected recover leaves the image untouched" `Quick
        test_rejected_recover_leaves_image;
      Alcotest.test_case "rejected create leaves the image untouched" `Quick
        test_rejected_create_leaves_image;
    ]
