(* The experiment harness itself: registry integrity. *)

module E = Workloads.Experiments

let test_registry_names_unique () =
  let names = List.map fst E.all in
  Helpers.check_int "no duplicate experiment names" (List.length names)
    (List.length (List.sort_uniq compare names))

(* A spec name identifies its population.  Across every experiment's
   cells at both sizes and the CLI's workload registry, one name has
   one heap size, and each name is one constructor's: the distinct
   constructors below have distinct names, and every name seen is
   theirs (memcached's carries its item count). *)
let test_spec_names_identify_populations () =
  let open Workloads in
  let seen =
    List.map snd (E.workloads ())
    @ List.concat_map
        (fun (name, _) ->
          List.concat_map
            (fun quick -> List.map (fun (c : Driver.cell) -> c.spec) (E.cells name ~quick))
            [ true; false ])
        E.all
  in
  let heap = Hashtbl.create 32 in
  List.iter
    (fun (s : Driver.spec) ->
      match Hashtbl.find_opt heap s.name with
      | None -> Hashtbl.add heap s.name s.heap_words
      | Some h -> Helpers.check_int (s.name ^ ": one heap size") h s.heap_words)
    seen;
  let constructors =
    [
      Bank.spec; Tatp.spec; Tpcc.spec Tpcc.Hash; Tpcc.spec Tpcc.Btree; Btree_bench.insert_only;
      Btree_bench.mixed; Vacation.spec Vacation.Low; Vacation.spec Vacation.High;
      Mod_bench.btree; Mod_bench.hash;
    ]
    @ List.map Ycsb.spec Ycsb.[ A; B; C; D; E; F ]
    @ List.map (fun items -> Memcached.spec ~items) [ 64; 2_000; 2_001 ]
  in
  let names = List.map (fun (s : Driver.spec) -> s.name) constructors in
  Helpers.check_int "distinct constructors, distinct names" (List.length names)
    (List.length (List.sort_uniq compare names));
  Hashtbl.iter
    (fun name h ->
      let known =
        List.mem name names
        ||
        match String.split_on_char '-' name with
        | [ "memcached"; items ] -> (Memcached.spec ~items:(int_of_string items)).heap_words = h
        | _ -> false
      in
      Helpers.check_bool (name ^ ": a known constructor's name") true known)
    heap

let suite =
  [
    Alcotest.test_case "registry: unique names" `Quick test_registry_names_unique;
    Alcotest.test_case "spec names identify populations" `Quick
      test_spec_names_identify_populations;
  ]
