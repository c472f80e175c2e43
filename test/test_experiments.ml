(* The experiment harness itself: registry integrity. *)

module E = Workloads.Experiments

let test_registry_names_unique () =
  let names = List.map fst E.all in
  Helpers.check_int "no duplicate experiment names" (List.length names)
    (List.length (List.sort_uniq compare names))

let suite =
  [
    Alcotest.test_case "registry: unique names" `Quick test_registry_names_unique;
  ]
