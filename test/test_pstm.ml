open Pstm
module Sim = Memsim.Sim
module Config = Memsim.Config

(* PTM fixture sized for tests: 8 threads, 1K-word logs, 64K-word heap. *)
let fixture ?(model = Config.optane_adr) ?(algorithm = Ptm.Redo) ?heap_words () =
  Helpers.ptm_fixture ~model ~algorithm ?heap_words ()

let both_algorithms f () =
  f Ptm.Redo;
  f Ptm.Undo

(* ---------- single-thread semantics ---------- *)

let test_read_write_roundtrip alg =
  let _, _, ptm = fixture ~algorithm:alg () in
  let addr =
    Ptm.atomic ptm (fun tx ->
        let a = Ptm.alloc tx 4 in
        Ptm.write tx a 11;
        Ptm.write tx (a + 1) 22;
        Helpers.check_int "read own write" 11 (Ptm.read tx a);
        a)
  in
  Ptm.atomic ptm (fun tx ->
      Helpers.check_int "committed value" 11 (Ptm.read tx addr);
      Helpers.check_int "second word" 22 (Ptm.read tx (addr + 1)))

let test_overwrite_in_tx alg =
  let _, _, ptm = fixture ~algorithm:alg () in
  let addr = Ptm.atomic ptm (fun tx -> Ptm.alloc tx 1) in
  Ptm.atomic ptm (fun tx ->
      Ptm.write tx addr 1;
      Ptm.write tx addr 2;
      Ptm.write tx addr 3;
      Helpers.check_int "latest own write" 3 (Ptm.read tx addr));
  Ptm.atomic ptm (fun tx -> Helpers.check_int "last write wins" 3 (Ptm.read tx addr))

let test_user_exception_aborts alg =
  let _, _, ptm = fixture ~algorithm:alg () in
  let addr = Ptm.atomic ptm (fun tx -> Ptm.alloc tx 1) in
  Ptm.atomic ptm (fun tx -> Ptm.write tx addr 5);
  (try
     Ptm.atomic ptm (fun tx ->
         Ptm.write tx addr 99;
         failwith "boom")
   with Failure _ -> ());
  Ptm.atomic ptm (fun tx ->
      Helpers.check_int "aborted write rolled back" 5 (Ptm.read tx addr))

let test_alloc_rollback_on_abort alg =
  let _, _, ptm = fixture ~algorithm:alg () in
  let first = ref 0 in
  (try
     Ptm.atomic ptm (fun tx ->
         first := Ptm.alloc tx 8;
         failwith "boom")
   with Failure _ -> ());
  let second = Ptm.atomic ptm (fun tx -> Ptm.alloc tx 8) in
  Helpers.check_int "aborted allocation reused" !first second

let test_free_recycles_after_commit alg =
  let _, _, ptm = fixture ~algorithm:alg () in
  let a = Ptm.atomic ptm (fun tx -> Ptm.alloc tx 8) in
  Ptm.atomic ptm (fun tx -> Ptm.free tx a);
  let b = Ptm.atomic ptm (fun tx -> Ptm.alloc tx 8) in
  Helpers.check_int "freed block recycled" a b

let test_nested_atomic_flattens alg =
  let _, _, ptm = fixture ~algorithm:alg () in
  let addr = Ptm.atomic ptm (fun tx -> Ptm.alloc tx 1) in
  Ptm.atomic ptm (fun tx ->
      Ptm.write tx addr 1;
      Ptm.atomic ptm (fun tx' ->
          Helpers.check_int "inner sees outer write" 1 (Ptm.read tx' addr);
          Ptm.write tx' addr 2);
      Helpers.check_int "outer sees inner write" 2 (Ptm.read tx addr))

let test_on_commit_runs_once alg =
  let _, _, ptm = fixture ~algorithm:alg () in
  let addr = Ptm.atomic ptm (fun tx -> Ptm.alloc tx 1) in
  let hits = ref 0 in
  Ptm.atomic ptm (fun tx ->
      Ptm.write tx addr 1;
      Ptm.on_commit tx (fun () -> incr hits));
  Helpers.check_int "hook ran once" 1 !hits

let test_log_overflow alg =
  let _, _, ptm = fixture ~algorithm:alg () in
  let base = Ptm.atomic ptm (fun tx -> Ptm.alloc tx 512) in
  Alcotest.check_raises "overflow" Ptm.Log_overflow (fun () ->
      Ptm.atomic ptm (fun tx ->
          (* More distinct words than the (1024-3)/2-entry log holds. *)
          for i = 0 to 511 do
            Ptm.write tx (base + i) i
          done))

(* A write set far past the per-transaction tables' initial capacities:
   600 distinct words, every third written twice, read back inside the
   transaction; then the next transaction on the same thread reads them
   through the shared path; then an aborted transaction of the same
   shape must leave every word as committed. *)
let test_large_write_set alg =
  let _, _, ptm = Helpers.ptm_fixture ~algorithm:alg ~log_words_per_thread:2048 () in
  let n = 600 in
  let base = Ptm.atomic ptm (fun tx -> Ptm.alloc tx n) in
  let expected i = if i mod 3 = 0 then (2 * i) + 1 else i + 1000 in
  let check_all tx what =
    for i = 0 to n - 1 do
      Helpers.check_int what (expected i) (Ptm.read tx (base + i))
    done
  in
  Ptm.Stats.reset ptm;
  Ptm.atomic ptm (fun tx ->
      for i = 0 to n - 1 do
        Ptm.write tx (base + i) (i + 1000)
      done;
      for i = 0 to n - 1 do
        if i mod 3 = 0 then Ptm.write tx (base + i) ((2 * i) + 1)
      done;
      check_all tx "read own write");
  Helpers.check_int "distinct words logged" n (Ptm.Stats.get ptm).Ptm.Stats.max_write_set;
  Ptm.atomic ptm (fun tx -> check_all tx "committed value");
  (try
     Ptm.atomic ptm (fun tx ->
         for i = 0 to n - 1 do
           Ptm.write tx (base + i) (-i)
         done;
         failwith "boom")
   with Failure _ -> ());
  Ptm.atomic ptm (fun tx -> check_all tx "abort left the heap unchanged")

let test_stats_commits_counted alg =
  let _, _, ptm = fixture ~algorithm:alg () in
  let addr = Ptm.atomic ptm (fun tx -> Ptm.alloc tx 1) in
  Ptm.Stats.reset ptm;
  for _ = 1 to 10 do
    Ptm.atomic ptm (fun tx -> Ptm.write tx addr 1)
  done;
  Ptm.atomic ptm (fun tx -> ignore (Ptm.read tx addr));
  let s = Ptm.Stats.get ptm in
  Helpers.check_int "commits" 11 s.Ptm.Stats.commits;
  Helpers.check_int "read-only commits" 1 s.Ptm.Stats.read_only_commits;
  Helpers.check_bool "write set tracked" true (s.Ptm.Stats.max_write_set >= 1)

(* ---------- concurrency (simulated threads) ---------- *)

let test_parallel_counter alg =
  let sim, _, ptm = fixture ~algorithm:alg () in
  let addr =
    Ptm.atomic ptm (fun tx ->
        let a = Ptm.alloc tx 1 in
        Ptm.write tx a 0;
        a)
  in
  let threads = 4 and per_thread = 50 in
  Helpers.run_workers sim threads (fun _tid ->
      for _ = 1 to per_thread do
        Ptm.atomic ptm (fun tx -> Ptm.write tx addr (Ptm.read tx addr + 1))
      done);
  Ptm.atomic ptm (fun tx ->
      Helpers.check_int "no lost updates" (threads * per_thread) (Ptm.read tx addr))

let test_parallel_disjoint_counters alg =
  let sim, _, ptm = fixture ~algorithm:alg () in
  let addrs =
    Ptm.atomic ptm (fun tx -> Array.init 4 (fun _ -> Ptm.alloc tx 1))
  in
  Helpers.run_workers sim 4 (fun tid ->
      for _ = 1 to 100 do
        Ptm.atomic ptm (fun tx -> Ptm.write tx addrs.(tid) (Ptm.read tx addrs.(tid) + 1))
      done);
  Ptm.atomic ptm (fun tx ->
      Array.iter (fun a -> Helpers.check_int "per-thread count" 100 (Ptm.read tx a)) addrs)

let test_atomicity_two_words alg =
  (* Transfer between two slots: the sum is invariant at every commit. *)
  let sim, _, ptm = fixture ~algorithm:alg () in
  let a, b =
    Ptm.atomic ptm (fun tx ->
        let a = Ptm.alloc tx 1 and b = Ptm.alloc tx 1 in
        Ptm.write tx a 1000;
        Ptm.write tx b 1000;
        (a, b))
  in
  Helpers.run_workers sim 4 (fun tid ->
      let rng = Repro_util.Rng.create (100 + tid) in
      for _ = 1 to 50 do
        Ptm.atomic ptm (fun tx ->
            let amount = Repro_util.Rng.int rng 10 in
            let va = Ptm.read tx a and vb = Ptm.read tx b in
            Ptm.write tx a (va - amount);
            Ptm.write tx b (vb + amount));
        Ptm.atomic ptm (fun tx ->
            let sum = Ptm.read tx a + Ptm.read tx b in
            Helpers.check_int "sum invariant" 2000 sum)
      done);
  ()

let test_conflicting_txs_abort_and_retry alg =
  let sim, _, ptm = fixture ~algorithm:alg () in
  let addr =
    Ptm.atomic ptm (fun tx ->
        let a = Ptm.alloc tx 1 in
        Ptm.write tx a 0;
        a)
  in
  Ptm.Stats.reset ptm;
  Helpers.run_workers sim 8 (fun _ ->
      for _ = 1 to 25 do
        Ptm.atomic ptm (fun tx -> Ptm.write tx addr (Ptm.read tx addr + 1))
      done);
  let s = Ptm.Stats.get ptm in
  Helpers.check_int "all commits eventually" 200 s.Ptm.Stats.commits;
  Helpers.check_bool "hot word causes aborts" true (s.Ptm.Stats.aborts > 0);
  Ptm.atomic ptm (fun tx -> Helpers.check_int "final value" 200 (Ptm.read tx addr))

(* ---------- crash / recovery ---------- *)

(* Run adders over [words] shared slots until the machine crashes, then
   recover and check (a) atomicity: all slots equal; (b) durability:
   the recovered count is >= the number of [atomic] calls that
   returned. *)
let crash_recovery_scenario ~model ~algorithm () =
  let sim, _, ptm = fixture ~model ~algorithm () in
  let words = 4 in
  let base =
    Ptm.atomic ptm (fun tx ->
        let a = Ptm.alloc tx words in
        for i = 0 to words - 1 do
          Ptm.write tx (a + i) 0
        done;
        a)
  in
  Ptm.root_set ptm 0 base;
  Memsim.Sim.persist_all sim;
  let completed = Array.make 4 0 in
  for tid = 0 to 3 do
    ignore
      (Sim.spawn sim (fun () ->
           for _ = 1 to 10_000 do
             Ptm.atomic ptm (fun tx ->
                 for i = 0 to words - 1 do
                   Ptm.write tx (base + i) (Ptm.read tx (base + i) + 1)
                 done);
             completed.(tid) <- completed.(tid) + 1
           done))
  done;
  Sim.run ~crash_at:300_000 sim;
  Helpers.check_bool "crashed mid-run" true (Sim.crashed sim);
  let sim' = Sim.reboot sim in
  let m' = Sim.machine sim' in
  let ptm' = Ptm.recover ~algorithm m' in
  let base' = Ptm.root_get ptm' 0 in
  Helpers.check_int "root survives" base base';
  let v0 = m'.Machine.raw_read base' in
  for i = 1 to words - 1 do
    Helpers.check_int
      (Printf.sprintf "atomicity: slot %d equals slot 0" i)
      v0
      (m'.Machine.raw_read (base' + i))
  done;
  let finished = Array.fold_left ( + ) 0 completed in
  Helpers.check_bool
    (Printf.sprintf "durability: recovered %d >= completed %d" v0 finished)
    true (v0 >= finished);
  Helpers.check_bool "recovered count sane" true (v0 <= finished + 4);
  (* The recovered heap is fully usable. *)
  Ptm.atomic ptm' (fun tx -> Ptm.write tx base' (Ptm.read tx base' + 1))

let test_crash_recovery_redo_adr = crash_recovery_scenario ~model:Config.optane_adr ~algorithm:Ptm.Redo
let test_crash_recovery_undo_adr = crash_recovery_scenario ~model:Config.optane_adr ~algorithm:Ptm.Undo
let test_crash_recovery_redo_eadr = crash_recovery_scenario ~model:Config.optane_eadr ~algorithm:Ptm.Redo
let test_crash_recovery_undo_eadr = crash_recovery_scenario ~model:Config.optane_eadr ~algorithm:Ptm.Undo
let test_crash_recovery_redo_pdram = crash_recovery_scenario ~model:Config.pdram ~algorithm:Ptm.Redo
let test_crash_recovery_redo_pdram_lite =
  crash_recovery_scenario ~model:Config.pdram_lite ~algorithm:Ptm.Redo

let prop_crash_any_time =
  (* Atomicity must hold no matter when the power fails, under every
     persistent durability model and both logging algorithms.  (This
     property caught a real protocol bug during development: raising
     the undo status before disarming the previous transaction's log
     entries let recovery roll back committed work.) *)
  Helpers.qtest ~count:60 "crash atomicity at random instants"
    QCheck2.Gen.(triple (int_range 1_000 400_000) bool (int_range 0 3))
    (fun (crash_at, use_undo, model_idx) ->
      let algorithm = if use_undo then Ptm.Undo else Ptm.Redo in
      let model =
        List.nth [ Config.optane_adr; Config.optane_eadr; Config.pdram; Config.pdram_lite ]
          model_idx
      in
      let sim, _, ptm = fixture ~model ~algorithm () in
      let words = 3 in
      let base =
        Ptm.atomic ptm (fun tx ->
            let a = Ptm.alloc tx words in
            for i = 0 to words - 1 do
              Ptm.write tx (a + i) 0
            done;
            a)
      in
      Ptm.root_set ptm 0 base;
      Memsim.Sim.persist_all sim;
      for tid = 0 to 2 do
        ignore
          (Sim.spawn sim (fun () ->
               let rng = Repro_util.Rng.create (7 * (tid + 1)) in
               for _ = 1 to 5_000 do
                 Ptm.atomic ptm (fun tx ->
                     let delta = 1 + Repro_util.Rng.int rng 3 in
                     for i = 0 to words - 1 do
                       Ptm.write tx (base + i) (Ptm.read tx (base + i) + delta)
                     done)
               done))
      done;
      Sim.run ~crash_at sim;
      let sim' = Sim.reboot sim in
      let m' = Sim.machine sim' in
      ignore (Ptm.recover ~algorithm m');
      let v0 = m'.Machine.raw_read base in
      let ok = ref true in
      for i = 1 to words - 1 do
        if m'.Machine.raw_read (base + i) <> v0 then ok := false
      done;
      !ok)

let test_recovery_idempotent () =
  let sim, _, ptm = fixture ~algorithm:Ptm.Redo () in
  let base =
    Ptm.atomic ptm (fun tx ->
        let a = Ptm.alloc tx 2 in
        Ptm.write tx a 0;
        Ptm.write tx (a + 1) 0;
        a)
  in
  Ptm.root_set ptm 0 base;
  Memsim.Sim.persist_all sim;
  Helpers.run_workers sim 2 ~crash_at:100_000 (fun _ ->
      for _ = 1 to 10_000 do
        Ptm.atomic ptm (fun tx ->
            Ptm.write tx base (Ptm.read tx base + 1);
            Ptm.write tx (base + 1) (Ptm.read tx (base + 1) + 1))
      done);
  let sim' = Sim.reboot sim in
  let m' = Sim.machine sim' in
  ignore (Ptm.recover m');
  let after_first = (m'.Machine.raw_read base, m'.Machine.raw_read (base + 1)) in
  ignore (Ptm.recover m');
  let after_second = (m'.Machine.raw_read base, m'.Machine.raw_read (base + 1)) in
  Alcotest.(check (pair int int)) "second recovery is a no-op" after_first after_second

(* Hostile images, one table row each: a fresh image broken in one
   place, and the entry points that must refuse it as a corrupt image
   with nothing written.  A hostile log is thread 0's log of a 2-thread
   region with 64-word logs (each area is rounded up to a 512-word
   page): status [status] (1 redo-committed, 2 undo-active) over
   entries that fill the whole area with no sentinel, or over one entry
   whose address lies far outside the heap.  The other rows break one
   header word of a PTM or FAMS image; the high-water row also arms a
   well-formed log, which must not be replayed either.  The checker refuses an image
   when [Region.attach] does or its report is not clean. *)
type refuser = Recover | Armed_lines | Check | Fams_recover

let break_log ~status fault (m : Machine.t) reg =
  let base = Pmem.Region.log_base reg ~tid:0 in
  let limit = base + Pmem.Region.log_words_per_thread reg in
  let target = Pmem.Region.data_start reg in
  m.Machine.raw_write base status;
  match fault with
  | `No_sentinel ->
    for i = 0 to ((limit - base - 2) / 2) - 1 do
      m.Machine.raw_write (base + 2 + (2 * i)) target;
      m.Machine.raw_write (base + 3 + (2 * i)) 7
    done
  | (`Outside_heap | `Well_formed) as fault ->
    m.Machine.raw_write (base + 2) (if fault = `Well_formed then target else 1 lsl 40);
    m.Machine.raw_write (base + 3) 7;
    m.Machine.raw_write (base + 4) 0

let test_hostile ~fams ~break refusers () =
  let sim, m, ptm =
    if fams then begin
      let words = 4096 in
      let sim, m = Helpers.sim_machine ~heap_words:(Fams.required_heap_words ~words) () in
      ignore (Fams.create ~words sim);
      (sim, m, None)
    end
    else
      let sim, m, ptm = Helpers.ptm_fixture ~max_threads:2 ~log_words_per_thread:64 () in
      (sim, m, Some ptm)
  in
  break m (Pmem.Region.attach m);
  let image () = Array.init m.Machine.words m.Machine.raw_read in
  let before = image () in
  let refuses label f =
    match f () with
    | true -> ()
    | false -> Alcotest.fail (label ^ ": accepted a corrupt image")
    | exception Machine.Corrupt_image _ -> ()
  in
  List.iter
    (function
      | Recover -> refuses "recover" (fun () -> ignore (Ptm.recover m); false)
      | Armed_lines ->
        refuses "armed_log_lines" (fun () -> ignore (Ptm.armed_log_lines (Option.get ptm)); false)
      | Check ->
        refuses "check" (fun () ->
            not (Pmem.Check.is_clean (Pmem.Check.run (Pmem.Region.attach m))))
      | Fams_recover -> refuses "Fams.recover" (fun () -> ignore (Fams.recover sim); false))
    refusers;
  Helpers.check_bool "nothing written" true (before = image ())

let hostile_cases =
  let row name ?(fams = false) break refusers =
    Alcotest.test_case name `Quick (test_hostile ~fams ~break refusers)
  in
  let header word value (m : Machine.t) _ = m.Machine.raw_write word (value m) in
  List.concat_map
    (fun (sname, status) ->
      List.map
        (fun (fname, fault) ->
          row
            (Printf.sprintf "hostile log: %s, %s" sname fname)
            (break_log ~status fault) [ Recover; Armed_lines; Check ])
        [ ("no sentinel", `No_sentinel); ("entry outside the heap", `Outside_heap) ])
    [ ("redo-committed", 1); ("undo-active", 2) ]
  @ [
      row "hostile log: sentinel-less armed log, checked"
        (break_log ~status:1 `No_sentinel)
        [ Check; Recover ];
      row "hostile image: high-water word past the heap"
        (fun m reg ->
          break_log ~status:1 `Well_formed m reg;
          header Pmem.Region.high_water_addr (fun m -> 2 * m.Machine.words) m reg)
        [ Recover; Check ];
      row "hostile image: header max_threads 2^30"
        (header 2 (fun _ -> 1 lsl 30))
        [ Recover; Check ];
      row "hostile image: log size -64" (header 3 (fun _ -> -64)) [ Recover; Check ];
      row "hostile image: data_start past the heap"
        (header 4 (fun m -> m.Machine.words + 512))
        [ Recover; Check ];
      row "hostile image: FAMS working-area size 2^24" ~fams:true
        (fun m reg -> m.Machine.raw_write (Pmem.Region.snapshot_base reg + 5) (1 lsl 24))
        [ Fams_recover; Check ];
    ]

let suite =
  let both name f =
    [
      Alcotest.test_case (name ^ " (redo)") `Quick (fun () -> f Ptm.Redo);
      Alcotest.test_case (name ^ " (undo)") `Quick (fun () -> f Ptm.Undo);
    ]
  in
  List.concat
    [
      both "roundtrip" test_read_write_roundtrip;
      both "overwrite in tx" test_overwrite_in_tx;
      both "user exception aborts" test_user_exception_aborts;
      both "alloc rollback" test_alloc_rollback_on_abort;
      both "free recycles" test_free_recycles_after_commit;
      both "nested flattening" test_nested_atomic_flattens;
      both "on_commit once" test_on_commit_runs_once;
      both "large write set" test_large_write_set;
      both "stats" test_stats_commits_counted;
      both "parallel counter" test_parallel_counter;
      both "disjoint counters" test_parallel_disjoint_counters;
      both "two-word atomicity" test_atomicity_two_words;
      both "conflict retry" test_conflicting_txs_abort_and_retry;
      [
        Alcotest.test_case "log overflow (redo)" `Quick (fun () -> test_log_overflow Ptm.Redo);
        Alcotest.test_case "crash: redo+ADR" `Quick test_crash_recovery_redo_adr;
        Alcotest.test_case "crash: undo+ADR" `Quick test_crash_recovery_undo_adr;
        Alcotest.test_case "crash: redo+eADR" `Quick test_crash_recovery_redo_eadr;
        Alcotest.test_case "crash: undo+eADR" `Quick test_crash_recovery_undo_eadr;
        Alcotest.test_case "crash: redo+PDRAM" `Quick test_crash_recovery_redo_pdram;
        Alcotest.test_case "crash: redo+PDRAM-Lite" `Quick test_crash_recovery_redo_pdram_lite;
        prop_crash_any_time;
        Alcotest.test_case "recovery idempotent" `Quick test_recovery_idempotent;
      ];
      hostile_cases;
    ]

let _ = both_algorithms
