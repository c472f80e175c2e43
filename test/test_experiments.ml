(* The experiment harness itself: registry integrity and a few cheap
   end-to-end regenerations in quick mode. *)

module E = Workloads.Experiments

(* The registry is the only way to a figure. *)
let quick name = (List.assoc name E.all) ~quick:true ()

let test_registry_names_unique () =
  let names = List.map fst E.all in
  Helpers.check_int "no duplicate experiment names" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_logsize_experiment () =
  let outcome = quick "logsize" in
  match outcome.E.tables with
  | [ t ] ->
    let csv = Repro_util.Table.to_csv t in
    Helpers.check_bool "has vacation row" true
      (String.length csv > 0
      && List.exists
           (fun line -> String.length line >= 8 && String.sub line 0 8 = "vacation")
           (String.split_on_char '\n' csv))
  | _ -> Alcotest.fail "expected one table"

let test_orec_ablation_monotone () =
  (* More orecs can only reduce false conflicts: throughput at 2^20
     must beat 2^10 clearly. *)
  let outcome = quick "orec-size" in
  let results = outcome.E.results in
  Helpers.check_int "six sizes" 6 (List.length results);
  let first = List.hd results and last = List.nth results 5 in
  Helpers.check_bool "bigger table is faster" true
    (last.Workloads.Driver.txs_per_sec > first.Workloads.Driver.txs_per_sec)

let test_recovery_time_experiment () =
  let outcome = quick "recovery-time" in
  match outcome.E.tables with
  | [ t ] ->
    let lines = String.split_on_char '\n' (Repro_util.Table.to_csv t) in
    (* header + 2 sizes + trailing newline *)
    Helpers.check_int "two data rows" 4 (List.length lines)
  | _ -> Alcotest.fail "expected one table"

let test_quick_flag_shrinks_fig8 () =
  (* Quick mode runs a reduced working-set axis. *)
  let outcome = quick "fig8" in
  match outcome.E.tables with
  | [ t ] ->
    let header = List.hd (String.split_on_char '\n' (Repro_util.Table.to_csv t)) in
    Helpers.check_bool "only two sizes in quick mode" true
      (String.split_on_char ',' header = [ "series"; "32KB"; "32MB" ])
  | _ -> Alcotest.fail "expected one table"

let suite =
  [
    Alcotest.test_case "registry: unique names" `Quick test_registry_names_unique;
    Alcotest.test_case "logsize regenerates" `Slow test_logsize_experiment;
    Alcotest.test_case "orec ablation monotone" `Slow test_orec_ablation_monotone;
    Alcotest.test_case "recovery-time regenerates" `Slow test_recovery_time_experiment;
    Alcotest.test_case "fig8 quick axis" `Slow test_quick_flag_shrinks_fig8;
  ]
