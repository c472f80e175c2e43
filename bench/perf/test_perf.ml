(* The benchmark measures what the repo's own entry points compute and
   its tracing perturbs nothing: its copy of the driver loop matches
   [Workloads.Driver.run], the traced rep (Machine.t ledger plus phase
   profiler) reproduces the untraced virtual outcome, and wrapping a
   crash scenario's closures leaves the sweep unchanged. *)

open Perfbench
module Ptm = Pstm.Ptm

let duration_ns = 1_000_000
let seed = 7

let des_cases =
  List.map
    (fun (name, spec, model, _) ->
      let run ?ledger ?telemetry () =
        Suite.run_des ?ledger ?telemetry ~duration_ns ~seed ~model ~algorithm:Ptm.Redo
          ~threads:Suite.des_threads spec
      in
      [
        Alcotest.test_case (name ^ ": driver copy matches Driver.run") `Quick (fun () ->
            let reference =
              Workloads.Driver.run ~duration_ns ~seed ~model ~algorithm:Ptm.Redo
                ~threads:Suite.des_threads spec
            in
            let copy = (run ()).Suite.result in
            Alcotest.(check string) "virtual digest" (Suite.des_digest reference)
              (Suite.des_digest copy);
            Alcotest.(check (float 0.0)) "txs/s" reference.Workloads.Driver.txs_per_sec
              copy.Workloads.Driver.txs_per_sec);
        Alcotest.test_case (name ^ ": traced rep perturbs nothing") `Quick (fun () ->
            let plain = (run ()).Suite.result in
            let ledger = Ledger.create Ledger.des_layers in
            let traced = (run ~ledger ~telemetry:Suite.telemetry_config ()).Suite.result in
            Alcotest.(check string) "virtual digest" (Suite.des_digest plain)
              (Suite.des_digest traced);
            Alcotest.(check bool) "ledger saw machine calls" true
              (Ledger.entries ledger "load" > 0);
            Alcotest.(check int) "one op layer entry per op return or machine return"
              (Ledger.entries ledger "op")
              (List.fold_left (fun acc k -> acc + Ledger.entries ledger k) 0 Ledger.machine_kinds
              + Repro_util.Histogram.count traced.Workloads.Driver.latency));
      ])
    (Suite.des_cells ~quick:true)
  |> List.concat

let crash_case =
  Alcotest.test_case "crash: wrapped closures leave the sweep unchanged" `Quick (fun () ->
      let explore = Suite.crash_explore ~points:16 ~seed in
      let plain = explore (Suite.crash_scenario ()) in
      let ledger = Ledger.create Ledger.crash_layers in
      let wrapped = explore (Ledger.wrap_scenario ledger (Suite.crash_scenario ())) in
      Alcotest.(check string) "final time, candidates, tested, failures"
        (Suite.crash_digest plain) (Suite.crash_digest wrapped);
      Alcotest.(check bool) "oracle ran once per probe" true
        (Ledger.entries ledger "oracle" >= wrapped.Crashtest.Engine.tested))

let () = Alcotest.run "perf" [ ("equivalence", des_cases @ [ crash_case ]) ]
