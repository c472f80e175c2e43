(* The experiment harness itself: registry integrity and the one quick
   regeneration no gate makes (recovery-time measures host wall-clock,
   so @results leaves it out). *)

module E = Workloads.Experiments

let test_registry_names_unique () =
  let names = List.map fst E.all in
  Helpers.check_int "no duplicate experiment names" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_recovery_time_experiment () =
  let outcome = (List.assoc "recovery-time" E.all) ~quick:true () in
  match outcome.E.tables with
  | [ t ] ->
    let lines = String.split_on_char '\n' (Repro_util.Table.to_csv t) in
    (* header + 2 sizes + trailing newline *)
    Helpers.check_int "two data rows" 4 (List.length lines)
  | _ -> Alcotest.fail "expected one table"

let suite =
  [
    Alcotest.test_case "registry: unique names" `Quick test_registry_names_unique;
    Alcotest.test_case "recovery-time regenerates" `Slow test_recovery_time_experiment;
  ]
