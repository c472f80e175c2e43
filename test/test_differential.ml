(* Differential stress suite: randomized single-threaded transaction
   traces executed under every (algorithm, durability model, flush
   discipline) configuration must be explained by the one sequential
   spec (reads and final heap), and coalescing must never add fence or
   clwb traffic.  The heavy fixed-seed slice also runs standalone as
   `dune build @differential`. *)

module Config = Memsim.Config

let check_seed_ok seed =
  match Difftest.check_seed seed with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* Same seed, same trace: the generator itself must be deterministic or
   replay lines are worthless. *)
let test_generator_deterministic () =
  Helpers.check_bool "traces identical" true (Difftest.gen_trace 7 = Difftest.gen_trace 7)

(* A transaction ending in a user abort must leave no residue in any
   configuration — exercised here with a hand-built trace whose only
   transaction allocates, writes and then aborts. *)
let test_abort_leaves_nothing () =
  let trace =
    {
      Difftest.slots = 2;
      txns =
        [
          [
            Difftest.Alloc { slot = 0; words = 3 };
            Difftest.Write { slot = 0; off = 1; value = 42 };
            Difftest.Abort;
          ];
        ];
    }
  in
  List.iter
    (fun { Difftest.name; model; algorithm; coalesce } ->
      let o = Difftest.execute ~model ~algorithm ~coalesce trace in
      Helpers.check_bool
        (Printf.sprintf "%s: slot empty after aborted alloc" name)
        true
        (Array.for_all (( = ) None) o.Difftest.final))
    Difftest.matrix

(* The acceptance numbers for the default bank-like shape: under ADR
   with redo logging, a commit-time-coalesced trace spends fewer total
   fences than the per-entry discipline whenever at least one
   transaction with writes commits. *)
let test_adr_redo_fence_gap () =
  let trace = Difftest.gen_trace ~txns:30 11 in
  let c =
    Difftest.execute ~model:Config.optane_adr ~algorithm:Pstm.Ptm.Redo ~coalesce:true trace
  in
  let n =
    Difftest.execute ~model:Config.optane_adr ~algorithm:Pstm.Ptm.Redo ~coalesce:false trace
  in
  Helpers.check_bool "some transactions committed" true (c.Difftest.commits > 1);
  Helpers.check_bool
    (Printf.sprintf "coalesced fences %d < naive %d" c.Difftest.sfences n.Difftest.sfences)
    true
    (c.Difftest.sfences < n.Difftest.sfences);
  Helpers.check_bool
    (Printf.sprintf "coalesced clwbs %d <= naive %d" c.Difftest.clwbs n.Difftest.clwbs)
    true
    (c.Difftest.clwbs <= n.Difftest.clwbs)

let qcheck_matrix =
  Helpers.qtest ~count:25 "random seeds agree across the matrix"
    QCheck2.Gen.(map (fun n -> 1 + (n land 0xFFFF)) int)
    (fun seed ->
      match Difftest.check_seed ~txns:20 seed with
      | Ok () -> true
      | Error e -> QCheck2.Test.fail_report e)

let suite =
  [
    Alcotest.test_case "generator is deterministic" `Quick test_generator_deterministic;
    Alcotest.test_case "aborted transactions leave nothing" `Quick test_abort_leaves_nothing;
    Alcotest.test_case "ADR redo: coalesced beats naive fence count" `Quick
      test_adr_redo_fence_gap;
    Alcotest.test_case "fixed seed 1 agrees across the matrix" `Slow (fun () -> check_seed_ok 1);
    Alcotest.test_case "fixed seed 2 agrees across the matrix" `Slow (fun () -> check_seed_ok 2);
    qcheck_matrix;
  ]
