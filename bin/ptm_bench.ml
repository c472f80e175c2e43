(* Command-line front end: the paper's experiments and custom runs.

     ptm_bench list
     ptm_bench run --workload tpcc-hash --model optane-adr --algorithm undo \
                   --threads 8 --duration-ms 3
     ptm_bench sweep --workload tatp --model pdram
     ptm_bench experiment all                       # every table and figure
     ptm_bench experiment --quick --csv out/ fig4 table1
     ptm_bench experiment --jobs 4 --json fig3
     ptm_bench regress -b BENCH_fams.json -c out/BENCH_fams.json

   [experiment] is the one driver over [Workloads.Experiments.all]:
   tables print to stdout, [--csv DIR] also writes DIR/<name>-<i>.csv,
   and [--json] writes BENCH_<name>.json next to the CSVs (or in the
   current directory). *)

open Cmdliner

let workloads () =
  [
    ("bank", Workloads.Bank.spec);
    ("tatp", Workloads.Tatp.spec);
    ("tpcc-hash", Workloads.Tpcc.spec Workloads.Tpcc.Hash);
    ("tpcc-btree", Workloads.Tpcc.spec Workloads.Tpcc.Btree);
    ("btree-insert", Workloads.Btree_bench.insert_only);
    ("btree-mixed", Workloads.Btree_bench.mixed);
    ("vacation-low", Workloads.Vacation.spec Workloads.Vacation.Low);
    ("vacation-high", Workloads.Vacation.spec Workloads.Vacation.High);
    ("memcached", Workloads.Memcached.spec ~items:2_000);
    ("ycsb-a", Workloads.Ycsb.spec Workloads.Ycsb.A);
    ("ycsb-b", Workloads.Ycsb.spec Workloads.Ycsb.B);
    ("ycsb-c", Workloads.Ycsb.spec Workloads.Ycsb.C);
    ("ycsb-d", Workloads.Ycsb.spec Workloads.Ycsb.D);
    ("ycsb-e", Workloads.Ycsb.spec Workloads.Ycsb.E);
    ("ycsb-f", Workloads.Ycsb.spec Workloads.Ycsb.F);
    ("mod-btree", Workloads.Mod_bench.btree);
    ("mod-hash", Workloads.Mod_bench.hash);
  ]

let workload_conv =
  let parse s =
    match List.assoc_opt s (workloads ()) with
    | Some spec -> Ok spec
    | None -> Error (`Msg (Printf.sprintf "unknown workload %S" s))
  in
  Arg.conv (parse, fun ppf s -> Format.fprintf ppf "%s" s.Workloads.Driver.name)

let model_conv =
  let parse s =
    match Memsim.Config.model_of_name s with
    | m -> Ok m
    | exception Invalid_argument msg -> Error (`Msg msg)
  in
  Arg.conv (parse, fun ppf m -> Format.fprintf ppf "%s" m.Memsim.Config.model_name)

let algorithm_conv =
  let parse s =
    match Pstm.Ptm.algorithm_of_name s with
    | Some a -> Ok a
    | None -> Error (`Msg (Printf.sprintf "unknown algorithm %S (redo|undo|htm|mod)" s))
  in
  Arg.conv (parse, fun ppf a -> Format.fprintf ppf "%s" (Pstm.Ptm.algorithm_name a))

let workload_arg =
  Arg.(
    required
    & opt (some workload_conv) None
    & info [ "w"; "workload" ] ~docv:"NAME" ~doc:"Workload (see $(b,list)).")

let model_arg =
  Arg.(
    value
    & opt model_conv Memsim.Config.optane_adr
    & info [ "m"; "model" ] ~docv:"MODEL"
        ~doc:
          ("Durability/placement model: "
          ^ String.concat ", "
              (List.map (fun m -> m.Memsim.Config.model_name) Memsim.Config.all_models)
          ^ "."))

let algorithm_arg =
  Arg.(
    value
    & opt algorithm_conv Pstm.Ptm.Redo
    & info [ "a"; "algorithm" ] ~docv:"ALG"
        ~doc:
          "Algorithm: redo, undo, htm (eADR-class models, or htm-commit, whose ADR domain \
           makes a hardware commit durable), or mod (minimally-ordered durability; pair with \
           the mod-* workloads to run the shadow structures).")

let threads_arg =
  Arg.(value & opt int 8 & info [ "t"; "threads" ] ~docv:"N" ~doc:"Simulated threads.")

let duration_arg =
  Arg.(
    value
    & opt float 3.0
    & info [ "d"; "duration-ms" ] ~docv:"MS" ~doc:"Virtual measurement window.")

let no_coalesce_arg =
  Arg.(
    value
    & flag
    & info [ "no-coalesce" ]
        ~doc:
          "Disable the PTM's flush coalescing and commit pipelining: commits fall back to the \
           naive per-entry discipline (a clwb + fence per log entry and per written word).  For \
           A/B runs against the default coalesced path.")

(* Non-finite statistics (e.g. percentiles of an empty histogram)
   render as "-", never "nan". *)
let ns_cell v = if Float.is_finite v then Printf.sprintf "%.0fns" v else "-"

let print_result (r : Workloads.Driver.result) =
  Format.printf "workload   : %s@." r.Workloads.Driver.workload;
  Format.printf "model/alg  : %s / %s@." r.Workloads.Driver.model r.Workloads.Driver.algorithm;
  Format.printf "threads    : %d@." r.Workloads.Driver.threads;
  Format.printf "throughput : %.3f M tx/s@." (r.Workloads.Driver.txs_per_sec /. 1e6);
  Format.printf "commits    : %d@." r.Workloads.Driver.commits;
  Format.printf "aborts     : %d (%s commits/abort)@." r.Workloads.Driver.aborts
    (Repro_util.Table.cell_f r.Workloads.Driver.commits_per_abort);
  Format.printf "log size   : %d cache lines max@." r.Workloads.Driver.max_log_lines;
  let h = r.Workloads.Driver.latency in
  Format.printf "latency    : p50=%s p95=%s p99=%s mean=%s@."
    (ns_cell (Repro_util.Histogram.percentile h 50.0))
    (ns_cell (Repro_util.Histogram.percentile h 95.0))
    (ns_cell (Repro_util.Histogram.percentile h 99.0))
    (ns_cell (Repro_util.Histogram.mean h));
  let s = r.Workloads.Driver.sim in
  Format.printf "machine    : loads=%d stores=%d l3miss=%d clwb=%d sfence=%d@."
    s.Memsim.Sim.Stats.loads s.Memsim.Sim.Stats.stores s.Memsim.Sim.Stats.l3_misses
    s.Memsim.Sim.Stats.clwbs s.Memsim.Sim.Stats.sfences;
  Format.printf "             fence-wait=%dns wpq-stall=%dns nvm-reads=%d@."
    s.Memsim.Sim.Stats.fence_wait_ns s.Memsim.Sim.Stats.wpq_stall_ns s.Memsim.Sim.Stats.nvm_reads

let print_phase_table (p : Pstm.Profile.t) =
  let t =
    Repro_util.Table.create ~title:"phase profile (all threads)"
      ~header:[ "phase"; "count"; "total ns"; "fences"; "flushes"; "p50 ns"; "p95 ns" ]
  in
  let tids = Pstm.Profile.tids p in
  List.iter
    (fun phase ->
      let sum f = List.fold_left (fun acc tid -> acc + f ~tid phase) 0 tids in
      let count = sum (Pstm.Profile.phase_count p) in
      if count > 0 then begin
        let h = Pstm.Profile.merged_phase_hist p phase in
        Repro_util.Table.add_row t
          [
            Pstm.Profile.phase_name phase;
            string_of_int count;
            string_of_int (sum (Pstm.Profile.phase_ns p));
            string_of_int (sum (Pstm.Profile.phase_fences p));
            string_of_int (sum (Pstm.Profile.phase_flushes p));
            Repro_util.Table.cell_f (Repro_util.Histogram.percentile h 50.0);
            Repro_util.Table.cell_f (Repro_util.Histogram.percentile h 95.0);
          ]
      end)
    Pstm.Profile.all_phases;
  Format.printf "%a" Repro_util.Table.print t;
  let sum f = List.fold_left (fun acc tid -> acc + f ~tid) 0 tids in
  let fences_saved = sum (Pstm.Profile.fences_saved p) in
  let flushes_saved = sum (Pstm.Profile.flushes_saved p) in
  if fences_saved > 0 || flushes_saved > 0 then
    Format.printf "coalescing : saved %d fences, %d clwbs vs the naive per-entry path@."
      fences_saved flushes_saved

let telemetry_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "telemetry" ] ~docv:"DIR"
        ~doc:
          "Capture telemetry (phase profile, time series, Chrome trace) and write \
           $(i,DIR)/profile.jsonl, $(i,DIR)/series.csv and $(i,DIR)/trace.json.  Load the trace \
           at https://ui.perfetto.dev.  Output is bit-deterministic for a given configuration.")

let run_cmd =
  let run spec model algorithm threads duration_ms no_coalesce telemetry_dir =
    let duration_ns = int_of_float (duration_ms *. 1e6) in
    let telemetry =
      match telemetry_dir with None -> None | Some _ -> Some Telemetry.default_config
    in
    let r =
      Workloads.Driver.run ~duration_ns ~coalesce:(not no_coalesce) ?telemetry ~model ~algorithm
        ~threads spec
    in
    print_result r;
    match (telemetry_dir, r.Workloads.Driver.telemetry) with
    | Some dir, Some cap ->
      print_phase_table (Telemetry.profile cap);
      let meta =
        Workloads.Driver.run_meta r ~seed:Workloads.Driver.default_seed ~duration_ns
      in
      List.iter (Format.printf "telemetry  : wrote %s@.") (Telemetry.dump ~dir meta cap)
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one workload under one configuration.")
    Term.(
      const run $ workload_arg $ model_arg $ algorithm_arg $ threads_arg $ duration_arg
      $ no_coalesce_arg $ telemetry_arg)

let sweep_cmd =
  let sweep spec model algorithm duration_ms no_coalesce =
    let duration_ns = int_of_float (duration_ms *. 1e6) in
    let t =
      Repro_util.Table.create
        ~title:
          (Printf.sprintf "%s on %s (%s%s)" spec.Workloads.Driver.name
             model.Memsim.Config.model_name
             (Pstm.Ptm.algorithm_name algorithm)
             (if no_coalesce then ", naive flushes" else ""))
        ~header:[ "threads"; "M tx/s"; "commits/abort" ]
    in
    List.iter
      (fun threads ->
        let r =
          Workloads.Driver.run ~duration_ns ~coalesce:(not no_coalesce) ~model ~algorithm
            ~threads spec
        in
        Repro_util.Table.add_row t
          [
            string_of_int threads;
            Repro_util.Table.cell_f (r.Workloads.Driver.txs_per_sec /. 1e6);
            Repro_util.Table.cell_f r.Workloads.Driver.commits_per_abort;
          ])
      Workloads.Experiments.threads_axis;
    Format.printf "%a" Repro_util.Table.print t
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Sweep the paper's thread axis for one configuration.")
    Term.(const sweep $ workload_arg $ model_arg $ algorithm_arg $ duration_arg $ no_coalesce_arg)

let experiment_cmd =
  let module E = Workloads.Experiments in
  let names_arg =
    let choices = List.map (fun (n, _) -> (n, [ n ])) E.all @ [ ("all", List.map fst E.all) ] in
    Arg.(
      non_empty
      & pos_all (enum choices) []
      & info [] ~docv:"EXPERIMENT"
          ~doc:"Experiments to run, in order (see $(b,list)); $(b,all) runs every one.")
  in
  let quick_arg = Arg.(value & flag & info [ "quick" ] ~doc:"Short measurement window.") in
  let positive_int =
    let parse s =
      match int_of_string_opt s with
      | Some n when n >= 1 -> Ok n
      | Some _ | None -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  let jobs_arg =
    Arg.(
      value
      & opt (some positive_int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains for the sweep's independent simulation cells (default: the \
             available cores).  Tables are byte-identical for every value; only wall time \
             changes.")
  in
  let csv_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"DIR"
          ~doc:
            "Also write each table to $(i,DIR)/$(i,EXPERIMENT)-$(i,I).csv, $(i,I) counting the \
             experiment's tables from 0.")
  in
  let json_arg =
    Arg.(
      value
      & flag
      & info [ "json" ]
          ~doc:
            "Also write BENCH_$(i,EXPERIMENT).json, next to the CSVs or in the current \
             directory: per-cell throughput/abort/fence metrics plus run totals and wall time.")
  in
  let exp names quick jobs csv json =
    let write_csv name (table : Repro_util.Table.t) =
      Option.iter
        (fun dir ->
          (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
          let path = Filename.concat dir (name ^ ".csv") in
          Out_channel.with_open_bin path (fun oc ->
              output_string oc (Repro_util.Table.to_csv table));
          Format.printf "  (csv written to %s)@." path)
        csv
    in
    List.iter
      (fun name ->
        let t0 = Unix.gettimeofday () in
        let outcome = (List.assoc name E.all) ~quick ?jobs () in
        let wall_s = Unix.gettimeofday () -. t0 in
        List.iteri
          (fun i table ->
            Format.printf "%a" Repro_util.Table.print table;
            write_csv (Printf.sprintf "%s-%d" name i) table)
          outcome.E.tables;
        if json then begin
          let path =
            Workloads.Bench_json.write ?dir:csv ~experiment:name ~quick
              ~jobs:(Option.value jobs ~default:(Parallel.Pool.default_jobs ()))
              ~wall_s ~extra:outcome.E.extra outcome.E.results
          in
          Format.printf "  (json written to %s)@." path
        end;
        Format.printf "  [%s: %d data points, %.1fs]@." name (List.length outcome.E.results) wall_s)
      (List.concat names)
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Regenerate the paper's tables and figures (fig3 table1 ... all).")
    Term.(const exp $ names_arg $ quick_arg $ jobs_arg $ csv_arg $ json_arg)

let regress_cmd =
  let module J = Workloads.Bench_json in
  let baseline_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "b"; "baseline" ] ~docv:"FILE" ~doc:"Committed baseline BENCH_*.json.")
  in
  let current_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "c"; "current" ] ~docv:"FILE" ~doc:"Freshly produced BENCH_*.json to check.")
  in
  let tolerance_arg =
    Arg.(
      value
      & opt float 5.0
      & info [ "tolerance" ] ~docv:"PCT"
          ~doc:"Tolerance band, in percent: metric moves within it are ignored.")
  in
  let include_wall_arg =
    Arg.(
      value
      & flag
      & info [ "include-wall" ]
          ~doc:
            "Also gate wall-clock / environment fields (wall_s, cores, jobs, events_per_sec, \
             *_wall_ns).  Off by default: they move with the host machine, not the code.")
  in
  let regress baseline current tolerance_pct include_wall =
    let parse_or_die path =
      try J.parse_file path
      with J.Parse_error msg ->
        Format.eprintf "regress: %s: %s@." path msg;
        exit 2
    in
    let b = parse_or_die baseline and c = parse_or_die current in
    let findings = J.regress ~tolerance_pct ~include_wall ~baseline:b ~current:c () in
    let tag = function
      | J.Regression -> "REGRESSION"
      | J.Improvement -> "improvement"
      | J.Note -> "note"
    in
    List.iter
      (fun f -> Format.printf "%-11s %s: %s@." (tag f.J.f_severity) f.J.f_path f.J.f_detail)
      findings;
    let count sev = List.length (List.filter (fun f -> f.J.f_severity = sev) findings) in
    let regressions = count J.Regression in
    Format.printf "regress    : %d regressions, %d improvements, %d notes (tolerance %.1f%%)@."
      regressions (count J.Improvement) (count J.Note) tolerance_pct;
    if regressions > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "regress"
       ~doc:
         "Diff a BENCH_*.json against a committed baseline with tolerance bands; exit non-zero \
          when a gated metric regressed.  Direction comes from the metric name (throughput-like \
          must not fall, cost-like must not rise).")
    Term.(const regress $ baseline_arg $ current_arg $ tolerance_arg $ include_wall_arg)

let list_cmd =
  let list () =
    Format.printf "workloads:@.";
    List.iter (fun (n, _) -> Format.printf "  %s@." n) (workloads ());
    Format.printf "models:@.";
    List.iter
      (fun m -> Format.printf "  %s@." m.Memsim.Config.model_name)
      Memsim.Config.all_models;
    Format.printf "experiments:@.";
    List.iter (fun (n, _) -> Format.printf "  %s@." n) Workloads.Experiments.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List workloads, models and experiments.") Term.(const list $ const ())

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info =
    Cmd.info "ptm_bench" ~version:"1.0"
      ~doc:"Persistent transactional memory on (simulated) Optane DC — experiment driver."
  in
  exit
    (Cmd.eval (Cmd.group ~default info [ run_cmd; sweep_cmd; experiment_cmd; regress_cmd; list_cmd ]))
