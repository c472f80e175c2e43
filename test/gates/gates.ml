(* Gate runner: the one executable behind every `dune build @<gate>`
   alias.

     gates.exe <gate> [--full]

   Run it from the repository root (the dune rules chdir to the build
   context's root), where the committed BENCH_<experiment>.json
   baselines live.  Exit 0 when every check passes inside the gate's
   wall-clock budget, 1 on a failed check or a blown budget, 2 on a
   usage error: an unknown gate, a malformed knob, an unparseable
   replay line.

   gate          alias          runtest  budget  checks
   crashtest     @crashtest     no       600 s   every cell of Crashtest.Scenarios.matrix
                                                 (PTM scenario x durability domain x
                                                 algorithm, then FAMS scenario x domain x
                                                 {fams-line, fams-page}), each judged by
                                                 the dlin oracle (knobs below)
   differential  @differential  yes       60 s   12 Difftest seeds leave the identical heap
                                                 under every configuration; a 4-thread ADR
                                                 bank run spends strictly fewer fences and
                                                 clwbs per commit coalesced than naive
   fams          @fams --full   quick    120 s   `fams` grid shape, line write amp below
                                                 page, per-domain fence/flush economy; the
                                                 quick form regresses vs BENCH_fams.json
   mod           @mod --full    quick    120 s   `algorithms` grid shape, MOD's fence
                                                 crossover; the quick form regresses vs
                                                 BENCH_algorithms.json
   parallel      @parallel      yes       60 s   quick Fig 3 bank panel byte-identical at
                                                 --jobs 1, 2 and 4
   kvserve       @kvserve       yes       60 s   quick service sweep byte-identical across a
                                                 rerun and --jobs 2; its record equals
                                                 BENCH_kvserve.json (virtual numbers exact)
   speedup       @speedup       yes       60 s   quick Fig 3 btree-insert panel: its cells and
                                                 minor/major GC words per simulated event
                                                 regress vs BENCH_speedup.json
   trace         @trace         yes       60 s   the quick record equals BENCH_trace.json
                                                 (virtual numbers exact); `ptm_bench
                                                 regress` passes an identical
                                                 BENCH_trace record and exits 1 once its p99
                                                 values are doubled; `ptm_bench experiment`
                                                 rejects --jobs 0, an unknown name and a
                                                 bare --csv as usage errors (exit 124)
   telemetry     @telemetry     no        60 s   bank artifacts (profile JSONL, series CSV,
                                                 Chrome trace) under {ADR, eADR} x {redo,
                                                 undo}: schema, exact phase sums, repeat run
                                                 byte-identical
   results       @results       yes      120 s   every table of the quick-size experiments
                                                 below byte-identical to the committed
                                                 results/quick/<experiment>-<i>.csv; a
                                                 missing or extra table fails

   `--full` changes only fams and mod: the full measurement window.
   The committed baselines are quick-sized, so full mode skips the
   regress step.

   Crashtest knobs, all optional:
     CRASHTEST_POINTS=n, CRASHTEST_SEED=n   sample size per cell (64) and
                                            sampling seed (1); anything but
                                            a positive / non-negative
                                            integer exits 2
     CRASHTEST_EXHAUSTIVE=1                 every candidate instant (minutes)
     CRASHTEST_SCENARIO / _MODEL / _ALG     exact-name cell filters; a filter
                                            matching no cell exits 2
     CRASHTEST_INJECT=skip-fence|reorder-log-apply|tear-write
                                            arm a PTM ordering bug for the
                                            whole sweep (expect failures);
                                            the FAMS cells are skipped
     CRASHTEST_REPLAY='scenario:model:alg:seed:t[:inject]'
                                            re-run one printed crash point
                                            (Scenarios.replay resolves it).
                                            alg picks the runtime: a PTM
                                            algorithm, or fams-line|fams-page
                                            for a FAMS cell, whose injects
                                            are skip-publish-fence |
                                            torn-journal-entry *)

module Config = Memsim.Config
module Ptm = Pstm.Ptm
module Profile = Pstm.Profile
module Engine = Crashtest.Engine
module Scenarios = Crashtest.Scenarios
module Driver = Workloads.Driver
module Experiments = Workloads.Experiments
module J = Workloads.Bench_json

(* ---------- shared pieces ---------- *)

let started = Unix.gettimeofday ()
let failures = ref 0

let check label ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" label
  end

let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline msg;
      exit 2)
    fmt

let render tables =
  String.concat "\n" (List.map (Format.asprintf "%a" Repro_util.Table.print) tables)

(* Byte identity with the first differing byte and 40 bytes of context
   either side. *)
let same_bytes label ~reference out =
  if String.equal reference out then
    Printf.printf "%s: byte-identical (%d bytes)\n%!" label (String.length out)
  else begin
    let n = min (String.length reference) (String.length out) in
    let rec first i = if i < n && reference.[i] = out.[i] then first (i + 1) else i in
    let i = first 0 in
    let context s =
      let lo = max 0 (i - 40) in
      String.sub s lo (min 80 (String.length s - lo))
    in
    check
      (Printf.sprintf "%s: differs at byte %d\n  ref: %S\n  got: %S" label i (context reference)
         (context out))
      false
  end

(* The fresh quick-size record must pass `Bench_json.regress` against
   the committed BENCH_<experiment>.json.  Simulation is deterministic,
   so any drift is a code change that must re-bless the baseline.
   [~exact:true] fails on every finding, not just regressions: for
   records holding only virtual numbers, where any move is a change. *)
let regress_vs_committed ?(exact = false) ~experiment ?extra results =
  let path = Printf.sprintf "BENCH_%s.json" experiment in
  let wall_s = Unix.gettimeofday () -. started in
  let current =
    J.parse (J.to_string (J.outcome_json ~experiment ~quick:true ~jobs:1 ~wall_s ?extra results))
  in
  let tolerance_pct = if exact then Some 0.0 else None in
  match J.regress ?tolerance_pct ~baseline:(J.parse_file path) ~current () with
  | findings ->
    let failing =
      if exact then findings else List.filter (fun f -> f.J.f_severity = J.Regression) findings
    in
    List.iter (fun f -> Printf.printf "  regress %s: %s\n" f.J.f_path f.J.f_detail) failing;
    check ("regress vs committed " ^ path) (failing = [])
  | exception (J.Parse_error msg | Sys_error msg) ->
    check (Printf.sprintf "regress vs committed %s: %s" path msg) false

let sum_over_tids p f = List.fold_left (fun acc tid -> acc + f ~tid) 0 (Profile.tids p)

let fences_and_flushes p =
  let over metric =
    sum_over_tids p (fun ~tid ->
        List.fold_left (fun acc ph -> acc + metric p ~tid ph) 0 Profile.all_phases)
  in
  (over Profile.phase_fences, over Profile.phase_flushes)

(* ---------- crashtest ---------- *)

let env_int var ~default ~lo =
  match Sys.getenv_opt var with
  | None -> default
  | Some s when String.trim s = "" -> default
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= lo -> n
    | _ -> usage_error "%s: expected an integer >= %d, got %S" var lo s)

let wanted var name =
  match Sys.getenv_opt var with None | Some "" -> true | Some v -> v = name

let crashtest ~full:_ =
  let points = env_int "CRASHTEST_POINTS" ~default:64 ~lo:1 in
  let seed = env_int "CRASHTEST_SEED" ~default:1 ~lo:0 in
  let exhaustive =
    match Sys.getenv_opt "CRASHTEST_EXHAUSTIVE" with
    | Some ("1" | "true" | "yes") -> true
    | Some _ | None -> false
  in
  let inject =
    match Sys.getenv_opt "CRASHTEST_INJECT" with
    | None | Some "" -> None
    | Some name -> (
      match Ptm.inject_of_name name with
      | Some _ as i -> i
      | None -> usage_error "CRASHTEST_INJECT: unknown PTM inject %S" name)
  in
  match Sys.getenv_opt "CRASHTEST_REPLAY" with
  | Some spec when String.trim spec <> "" -> (
    match Scenarios.replay spec with
    | Error msg -> usage_error "CRASHTEST_REPLAY: %s" msg
    | Ok (cell, seed, crash_at) -> (
      match Engine.probe ~seed ~crash_at cell with
      | Ok () -> Printf.printf "replay %s: ok (no violation at t=%d)\n%!" spec crash_at
      | Error reason -> check (Printf.sprintf "replay %s: VIOLATION\n  %s" spec reason) false))
  | Some _ | None ->
    let cells =
      List.filter
        (fun cell ->
          let scenario, model, algorithm = Engine.names cell in
          wanted "CRASHTEST_SCENARIO" scenario
          && wanted "CRASHTEST_MODEL" model
          && wanted "CRASHTEST_ALG" algorithm)
        (Scenarios.matrix ?inject ())
    in
    (* A typo'd filter must not read as a clean bill of health. *)
    if List.is_empty cells then
      usage_error "no cells matched the CRASHTEST_SCENARIO/MODEL/ALG filters";
    List.iter
      (fun cell ->
        let report = Engine.sweep ~points ~seed ~exhaustive cell in
        Format.printf "%a@." Engine.pp_report report;
        check
          (Printf.sprintf "cell %s/%s/%s" report.Engine.scenario report.Engine.model
             report.Engine.algorithm)
          (Engine.ok report))
      cells;
    if !failures = 0 then Printf.printf "all %d cells passed\n%!" (List.length cells)

(* ---------- differential ---------- *)

let bank_profile ~coalesce =
  let passive = { Telemetry.default_config with Telemetry.sample_interval_ns = 0 } in
  let r =
    Driver.run ~duration_ns:300_000 ~telemetry:passive ~model:Config.optane_adr
      ~algorithm:Ptm.Redo ~threads:4 ~coalesce Workloads.Bank.spec
  in
  let cap = match r.Driver.telemetry with Some c -> c | None -> failwith "no capture" in
  let p = Telemetry.profile cap in
  let fences, clwbs = fences_and_flushes p in
  (r.Driver.commits, fences, clwbs, sum_over_tids p (Profile.fences_saved p))

let differential ~full:_ =
  let seeds = List.init 12 (fun i -> 1 + i) in
  List.iter
    (fun seed ->
      match Difftest.check_seed seed with
      | Ok () -> ()
      | Error e -> check ("difftest: " ^ e) false)
    seeds;
  let commits_c, fences_c, clwbs_c, saved_c = bank_profile ~coalesce:true in
  let commits_n, fences_n, clwbs_n, saved_n = bank_profile ~coalesce:false in
  let per count commits = float_of_int count /. float_of_int (max 1 commits) in
  check
    (Printf.sprintf "bank economy: commits (coalesced %d, naive %d)" commits_c commits_n)
    (commits_c > 0 && commits_n > 0);
  check
    (Printf.sprintf "bank economy: coalesced fences/commit %.2f below naive %.2f"
       (per fences_c commits_c) (per fences_n commits_n))
    (per fences_c commits_c < per fences_n commits_n);
  check
    (Printf.sprintf "bank economy: coalesced clwbs/commit %.2f below naive %.2f"
       (per clwbs_c commits_c) (per clwbs_n commits_n))
    (per clwbs_c commits_c < per clwbs_n commits_n);
  check "bank economy: coalesced run reports fences saved" (saved_c > 0);
  check (Printf.sprintf "bank economy: naive run reports %d fences saved" saved_n) (saved_n = 0);
  Printf.printf "differential: %d seeds x %d configurations, bank economy\n"
    (List.length seeds)
    (List.length Difftest.matrix)

(* ---------- fams ---------- *)

let fams ~full =
  let workloads = [ "fams-bank"; "fams-kv"; "fams-btree" ] in
  let models = [ "ADR"; "eADR"; "transient"; "PDRAM"; "PDRAM-Lite" ] in
  let series = [ "fams-line"; "fams-page" ] in
  let outcome, cells = Experiments.fams_run ~quick:(not full) () in
  let find workload series model =
    List.find_opt
      (fun c ->
        c.Experiments.fc_workload = workload
        && c.Experiments.fc_series = series
        && c.Experiments.fc_model = model)
      cells
  in
  (* Shape: every cell of the grid, with real work behind it. *)
  check "grid: 45 driver rows" (List.length outcome.Experiments.results = 45);
  check "grid: 30 fams cells" (List.length cells = 30);
  List.iter
    (fun workload ->
      List.iter
        (fun s ->
          List.iter
            (fun model ->
              check
                (Printf.sprintf "cell %s/%s/%s present and synced work" workload s model)
                (match find workload s model with
                | None -> false
                | Some c -> c.Experiments.fc_syncs > 0 && c.Experiments.fc_bytes_dirtied > 0))
            models)
        series)
    workloads;
  (* Line tracking strictly beats page tracking on write amp. *)
  List.iter
    (fun workload ->
      List.iter
        (fun model ->
          match (find workload "fams-line" model, find workload "fams-page" model) with
          | Some l, Some p ->
            let la = l.Experiments.fc_write_amp and pa = p.Experiments.fc_write_amp in
            check
              (Printf.sprintf "%s/%s: line write amp %.2f < page %.2f" workload model la pa)
              (Float.is_finite la && Float.is_finite pa && la < pa);
            check
              (Printf.sprintf "%s/%s: write amp >= 1 (got %.2f)" workload model la)
              (la >= 1.0)
          | _ -> () (* absence already reported by the shape pass *))
        models)
    workloads;
  (* Fences and flushes follow the durability domain. *)
  List.iter
    (fun workload ->
      List.iter
        (fun s ->
          let per f model = match find workload s model with Some c -> f c | None -> nan in
          let fences = per (fun c -> c.Experiments.fc_fences_per_sync) in
          let flushes = per (fun c -> c.Experiments.fc_flushes_per_sync) in
          check
            (Printf.sprintf "%s/%s: fences on ADR (got %.2f)" workload s (fences "ADR"))
            (fences "ADR" > 0.0);
          List.iter
            (fun model ->
              check
                (Printf.sprintf "%s/%s: 0 fences on %s (got %.2f)" workload s model
                   (fences model))
                (fences model = 0.0);
              check
                (Printf.sprintf "%s/%s: 0 flushes on %s (got %.2f)" workload s model
                   (flushes model))
                (flushes model = 0.0))
            [ "eADR"; "transient" ])
        series)
    workloads;
  if not full then
    regress_vs_committed ~experiment:"fams" ~extra:outcome.Experiments.extra
      outcome.Experiments.results

(* ---------- mod ---------- *)

let fences_per_commit r =
  match r.Driver.telemetry with
  | None -> nan
  | Some cap ->
    let p = Telemetry.profile cap in
    let fences, _ = fences_and_flushes p in
    float_of_int fences /. float_of_int (max 1 (sum_over_tids p (Profile.commits p)))

let mod_ ~full =
  let workloads = [ "mod-btree"; "mod-hash" ] in
  let outcome = (List.assoc "algorithms" Experiments.all) ~quick:(not full) () in
  let results = outcome.Experiments.results in
  let find workload algorithm model =
    List.find_opt
      (fun r ->
        r.Driver.workload = workload && r.Driver.algorithm = algorithm && r.Driver.model = model)
      results
  in
  (* Shape: the full grid, mod rows included. *)
  check "grid: 30 cells" (List.length results = 30);
  List.iter
    (fun workload ->
      List.iter
        (fun algorithm ->
          List.iter
            (fun model ->
              check
                (Printf.sprintf "cell %s/%s/%s present and committed work" workload algorithm
                   model)
                (match find workload algorithm model with
                | None -> false
                | Some r -> r.Driver.commits > 0))
            [ "optane-adr"; "optane-eadr"; "transient-cache"; "pdram"; "pdram-lite" ])
        [ "redo"; "undo"; "mod" ])
    workloads;
  (* The ordering-economy crossover. *)
  List.iter
    (fun workload ->
      let fpc alg model =
        match find workload alg model with Some r -> fences_per_commit r | None -> nan
      in
      let mod_adr = fpc "mod" "optane-adr" and redo_adr = fpc "redo" "optane-adr" in
      check
        (Printf.sprintf "%s: mod fences/commit <= 1 on ADR (got %.2f)" workload mod_adr)
        (Float.is_finite mod_adr && mod_adr <= 1.0 +. 1e-9);
      check
        (Printf.sprintf "%s: mod beats redo's fence count on ADR (%.2f vs %.2f)" workload
           mod_adr redo_adr)
        (Float.is_finite redo_adr && mod_adr < redo_adr);
      List.iter
        (fun model ->
          let f = fpc "mod" model in
          check
            (Printf.sprintf "%s: mod fences collapse to 0 on %s (got %.2f)" workload model f)
            (f = 0.0))
        [ "optane-eadr"; "transient-cache" ])
    workloads;
  if not full then regress_vs_committed ~experiment:"algorithms" results

(* ---------- parallel and kvserve: byte identity ---------- *)

(* The experiment layer promises that --jobs buys wall-clock time only.
   A mismatch means a cell observed state outside itself: a shared RNG,
   a process-global counter, a telemetry sink written from two domains. *)
let parallel ~full:_ =
  let render_panel jobs =
    render (Experiments.fig3_panel ~quick:true ~jobs Workloads.Bank.spec).Experiments.tables
  in
  let reference = render_panel 1 in
  List.iter
    (fun jobs ->
      same_bytes (Printf.sprintf "parallel --jobs %d vs serial" jobs) ~reference
        (render_panel jobs))
    [ 2; 4 ]

(* The service promises byte-identical output for equal (config, fleet)
   inputs: the working-set x domain sweep plus the crash-recovery table,
   through the full codec -> router -> batch -> commit path.  Its
   record must also match the committed BENCH_kvserve.json exactly. *)
let kvserve ~full:_ =
  let sweep jobs = Experiments.kvserve ~quick:true ~jobs () in
  let first = sweep 1 in
  let reference = render first.Experiments.tables in
  same_bytes "kvserve second --jobs 1 run" ~reference (render (sweep 1).Experiments.tables);
  same_bytes "kvserve --jobs 2" ~reference (render (sweep 2).Experiments.tables);
  regress_vs_committed ~exact:true ~experiment:"kvserve" ~extra:first.Experiments.extra []

(* ---------- speedup ---------- *)

(* The simulator's own allocation: the quick btree-insert panel's cells
   and GC words per simulated event against BENCH_speedup.json.  The
   gate runs nothing else, so its process counts the same words as the
   `ptm_bench experiment speedup` run that recorded the baseline. *)
let speedup ~full:_ =
  let outcome = Experiments.speedup ~quick:true () in
  List.iter
    (fun (k, v) -> Printf.printf "speedup %s: %s\n%!" k (J.to_string v))
    outcome.Experiments.extra;
  regress_vs_committed ~experiment:"speedup" ~extra:outcome.Experiments.extra
    outcome.Experiments.results

(* ---------- trace ---------- *)

(* The fresh BENCH_trace.json record must match the committed one
   exactly, and the regression sentinel must bite: double every p99_ns
   in a copy of the record.  The other tracing
   promises (zero perturbation, digest stability, accounting closure,
   tail blame) are alcotest cases in test_kvserve.ml.  The same
   executable's experiment driver must turn a bad command line into a
   cmdliner usage error (exit 124) before any experiment runs. *)
let trace ~full:_ =
  let bench_exe =
    Filename.concat (Filename.dirname Sys.executable_name) "../../bin/ptm_bench.exe"
  in
  let outcome = Experiments.trace ~quick:true ~jobs:1 () in
  regress_vs_committed ~exact:true ~experiment:"trace" ~extra:outcome.Experiments.extra [];
  let record =
    J.outcome_json ~experiment:"trace" ~quick:true ~jobs:1 ~wall_s:1.0
      ~extra:outcome.Experiments.extra []
  in
  let rec inflate = function
    | J.Obj kvs ->
      J.Obj
        (List.map
           (fun (k, v) ->
             match v with
             | J.Int n when k = "p99_ns" -> (k, J.Int (n * 2))
             | J.Float n when k = "p99_ns" -> (k, J.Float (n *. 2.0))
             | v -> (k, inflate v))
           kvs)
    | J.List vs -> J.List (List.map inflate vs)
    | leaf -> leaf
  in
  let write_tmp suffix json =
    let path = Filename.temp_file "trace_gate" suffix in
    let oc = open_out path in
    output_string oc (J.to_string json);
    close_out oc;
    path
  in
  let baseline = write_tmp "_base.json" record in
  let same = write_tmp "_same.json" record in
  let worse = write_tmp "_worse.json" (inflate record) in
  let run_bench args =
    Sys.command (Filename.quote_command bench_exe args ~stdout:Filename.null ~stderr:Filename.null)
  in
  check "regress: identical record passes" (run_bench [ "regress"; "-b"; baseline; "-c"; same ] = 0);
  check "regress: injected p99 regression exits 1"
    (run_bench [ "regress"; "-b"; baseline; "-c"; worse ] = 1);
  List.iter
    (fun args ->
      check
        (Printf.sprintf "ptm_bench %s: usage error" (String.concat " " args))
        (run_bench args = 124))
    [
      [ "experiment"; "table3"; "--jobs"; "0" ];
      [ "experiment"; "fgi3" ];
      [ "experiment"; "table3"; "--csv" ];
    ];
  List.iter Sys.remove [ baseline; same; worse ]

(* ---------- telemetry ---------- *)

let telemetry_cells =
  [
    (Config.optane_adr, Ptm.Redo);
    (Config.optane_adr, Ptm.Undo);
    (Config.optane_eadr, Ptm.Redo);
    (Config.optane_eadr, Ptm.Undo);
  ]

let artifacts model algorithm =
  let duration_ns = 300_000 in
  let r =
    Driver.run ~duration_ns ~telemetry:Telemetry.default_config ~model ~algorithm ~threads:4
      Workloads.Bank.spec
  in
  let cap = match r.Driver.telemetry with Some c -> c | None -> failwith "no capture" in
  let meta = Driver.run_meta r ~seed:Driver.default_seed ~duration_ns in
  (r, cap, Telemetry.files meta cap)

let lines s = String.split_on_char '\n' (String.trim s)

(* "nan"/"inf" can only come from a float leaking into the emitters;
   "-" digits only from a negative duration or counter.  Both are
   schema violations anywhere in any artifact. *)
let check_no_bad_numbers cell name content =
  let has sub =
    let n = String.length sub and l = String.length content in
    let rec go i = i + n <= l && (String.sub content i n = sub || go (i + 1)) in
    go 0
  in
  check (Printf.sprintf "%s %s: no \"nan\"" cell name) (not (has "nan"));
  check (Printf.sprintf "%s %s: no \"inf\"" cell name) (not (has "inf"));
  check (Printf.sprintf "%s %s: no negative value" cell name) (not (has ":-" || has ",-"))

let check_jsonl cell content =
  let ls = lines content in
  check (Printf.sprintf "%s profile.jsonl: not empty" cell) (ls <> []);
  List.iteri
    (fun i l ->
      let n = String.length l in
      check
        (Printf.sprintf "%s profile.jsonl:%d: a JSON object" cell (i + 1))
        (n >= 2 && l.[0] = '{' && l.[n - 1] = '}'))
    ls;
  let count_type ty =
    let tag = Printf.sprintf "{\"type\":%S" ty in
    List.length (List.filter (String.starts_with ~prefix:tag) ls)
  in
  check (Printf.sprintf "%s profile.jsonl: exactly one run header" cell) (count_type "run" = 1);
  check (Printf.sprintf "%s profile.jsonl: phase rows" cell) (count_type "phase" > 0);
  check (Printf.sprintf "%s profile.jsonl: run-phase rows" cell) (count_type "run-phase" > 0);
  check (Printf.sprintf "%s profile.jsonl: thread rows" cell) (count_type "thread" > 0)

let check_csv cell content =
  match lines content with
  | [] -> check (Printf.sprintf "%s series.csv: not empty" cell) false
  | header :: rows ->
    let cols l = List.length (String.split_on_char ',' l) in
    check (Printf.sprintf "%s series.csv: header" cell) (header = Telemetry.Series.csv_header);
    check (Printf.sprintf "%s series.csv: data rows" cell) (rows <> []);
    List.iteri
      (fun i row ->
        check
          (Printf.sprintf "%s series.csv:%d: column count" cell (i + 2))
          (cols row = cols header))
      rows

let check_trace cell content =
  let content = String.trim content in
  let n = String.length content in
  check (Printf.sprintf "%s trace.json: a JSON object" cell)
    (n >= 2 && content.[0] = '{' && content.[n - 1] = '}')

let telemetry ~full:_ =
  List.iter
    (fun (model, algorithm) ->
      let cell =
        Printf.sprintf "%s/%s" model.Config.model_name (Ptm.algorithm_name algorithm)
      in
      let r, cap, files = artifacts model algorithm in
      check (Printf.sprintf "%s: commits" cell) (r.Driver.commits > 0);
      let p = Telemetry.profile cap in
      List.iter
        (fun tid ->
          check
            (Printf.sprintf "%s: tid %d phase sum = txn time" cell tid)
            (Profile.total_phase_ns p ~tid = Profile.txn_ns p ~tid))
        (Profile.tids p);
      List.iter
        (fun (name, content) ->
          check_no_bad_numbers cell name content;
          match name with
          | "profile.jsonl" -> check_jsonl cell content
          | "series.csv" -> check_csv cell content
          | "trace.json" -> check_trace cell content
          | _ -> check (Printf.sprintf "%s: expected artifact, got %s" cell name) false)
        files;
      (* Determinism: the identical configuration again, byte for byte. *)
      let _, _, again = artifacts model algorithm in
      List.iter2
        (fun (name, c1) (_, c2) ->
          same_bytes (Printf.sprintf "%s %s repeat run" cell name) ~reference:c1 c2)
        files again)
    telemetry_cells

(* ---------- results ---------- *)

(* The quick-size experiment tables are the refactor bar: simulation
   is deterministic, so any byte that moves is a behaviour change.
   recovery-time is left out (it measures host wall-clock), and so are
   the experiments too slow for runtest.  After a deliberate behaviour
   change, regenerate the reference files from the repository root with

     dune exec bin/ptm_bench.exe -- experiment --quick --jobs 1 --csv results/quick \
       table1 table2 table3 fig7 fig8 logsize flush-timing orec-size htm scaling \
       latency dimm-interleave reserve-energy algorithms fams telemetry kvserve trace

   and explain the diff in the commit. *)
let results_dir = "results/quick"

let results_experiments =
  [
    "table1"; "table2"; "table3"; "fig7"; "fig8"; "logsize"; "flush-timing"; "orec-size"; "htm";
    "scaling"; "latency"; "dimm-interleave"; "reserve-energy"; "algorithms"; "fams";
    "telemetry"; "kvserve"; "trace";
  ]

let results ~full:_ =
  let rendered =
    List.concat_map
      (fun name ->
        let outcome = (List.assoc name Experiments.all) ~quick:true ~jobs:1 () in
        List.mapi
          (fun i table -> (Printf.sprintf "%s-%d.csv" name i, Repro_util.Table.to_csv table))
          outcome.Experiments.tables)
      results_experiments
  in
  List.iter
    (fun (file, csv) ->
      let path = Filename.concat results_dir file in
      match In_channel.with_open_bin path In_channel.input_all with
      | reference -> same_bytes path ~reference csv
      | exception Sys_error _ -> check (Printf.sprintf "%s: table rendered, file missing" path) false)
    rendered;
  Array.iter
    (fun file ->
      if Filename.check_suffix file ".csv" && not (List.mem_assoc file rendered) then
        check (Printf.sprintf "%s/%s: file committed, table not rendered" results_dir file) false)
    (Sys.readdir results_dir)

(* ---------- the table ---------- *)

type gate = { name : string; budget_s : float; run : full:bool -> unit }

let gates =
  [
    { name = "crashtest"; budget_s = 600.0; run = crashtest };
    { name = "differential"; budget_s = 60.0; run = differential };
    { name = "fams"; budget_s = 120.0; run = fams };
    { name = "mod"; budget_s = 120.0; run = mod_ };
    { name = "parallel"; budget_s = 60.0; run = parallel };
    { name = "kvserve"; budget_s = 60.0; run = kvserve };
    { name = "speedup"; budget_s = 60.0; run = speedup };
    { name = "trace"; budget_s = 60.0; run = trace };
    { name = "telemetry"; budget_s = 60.0; run = telemetry };
    { name = "results"; budget_s = 120.0; run = results };
  ]

let () =
  let names = String.concat " " (List.map (fun g -> g.name) gates) in
  let gate, full =
    match List.tl (Array.to_list Sys.argv) with
    | [ name ] -> (name, false)
    | [ name; "--full" ] -> (name, true)
    | _ -> usage_error "usage: gates.exe <gate> [--full]\ngates: %s" names
  in
  match List.find_opt (fun g -> g.name = gate) gates with
  | None -> usage_error "gates.exe: unknown gate %S\ngates: %s" gate names
  | Some g ->
    g.run ~full;
    let elapsed = Unix.gettimeofday () -. started in
    let label = if full then g.name ^ " --full" else g.name in
    if !failures > 0 then begin
      Printf.printf "%s: %d check(s) FAILED in %.1fs\n%!" label !failures elapsed;
      exit 1
    end
    else if elapsed > g.budget_s then begin
      Printf.printf "%s: all checks passed but %.1fs exceeds the %.0fs budget\n%!" label elapsed
        g.budget_s;
      exit 1
    end
    else
      Printf.printf "%s: all checks passed in %.1fs (budget %.0fs)\n%!" label elapsed g.budget_s
