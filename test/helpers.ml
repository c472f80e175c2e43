(* Shared fixtures for the test suites. *)

let sim_machine ?(model = Memsim.Config.optane_adr) ?(heap_words = 1 lsl 16) ?lat () =
  let cfg = Memsim.Config.make ?lat ~heap_words model in
  let sim = Memsim.Sim.create cfg in
  (sim, Memsim.Sim.machine sim)

(* Run [threads] simulated workers [f tid] to completion. *)
let run_workers ?crash_at sim threads f =
  for tid = 0 to threads - 1 do
    ignore (Memsim.Sim.spawn sim (fun () -> f tid))
  done;
  Memsim.Sim.run ?crash_at sim

(* Machine plus an attached PTM — the fixture most suites start from.
   Optional arguments mirror [Ptm.create]'s so suites only state what
   they care about. *)
let ptm_fixture ?model ?algorithm ?flush_timing ?(heap_words = 1 lsl 16)
    ?(max_threads = 8) ?(log_words_per_thread = 1024) ?lat () =
  let sim, m = sim_machine ?model ~heap_words ?lat () in
  let ptm = Pstm.Ptm.create ?algorithm ?flush_timing ~max_threads ~log_words_per_thread m in
  (sim, m, ptm)

(* The persistent-structure suites' variant: a bigger heap (splitting
   trees and towers churn allocation) and a bigger per-thread log,
   shared by test_pstructs, test_pstructs2 and test_mod so the sizing
   lives in one place. *)
let pstructs_fixture ?model ?algorithm ?(heap_words = 1 lsl 18) () =
  ptm_fixture ?model ?algorithm ~heap_words ~log_words_per_thread:2048 ()

(* Reboot a crashed (or finished) sim and recover the PTM on it. *)
let reboot_and_recover ?algorithm sim =
  let sim' = Memsim.Sim.reboot sim in
  let m' = Memsim.Sim.machine sim' in
  let ptm' = Pstm.Ptm.recover ?algorithm m' in
  (sim', m', ptm')

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Minor words [f] allocates per call over [iters] calls [f 1] ..
   [f iters], measured after one warm-up pass of the same calls (which
   grows every buffer to size).  [Gc.minor_words] returns an unboxed
   float, so the measurement itself allocates nothing. *)
let minor_words_per_iter ?(iters = 10_000) f =
  for i = 1 to iters do
    f i
  done;
  let w0 = Gc.minor_words () in
  for i = 1 to iters do
    f i
  done;
  (Gc.minor_words () -. w0) /. float_of_int iters

let check_alloc_free name words =
  check_bool (Printf.sprintf "%s: %.3f minor words per iteration" name words) true (words = 0.)

(* qcheck bridge: register a property as an alcotest case. *)
let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen prop)

(* Key/op traces for the structure-vs-oracle differential properties:
   (key, op-code) pairs with keys in [1, key_range] and op codes in
   [0, ops - 1].  [size] bounds the trace length; without it the list
   uses qcheck's default size distribution. *)
let kv_ops_gen ?size ~key_range ~ops () =
  let open QCheck2.Gen in
  let step = pair (int_range 1 key_range) (int_range 0 (ops - 1)) in
  match size with None -> list step | Some (lo, hi) -> list_size (int_range lo hi) step
