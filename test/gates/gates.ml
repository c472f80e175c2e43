(* Gate runner: the one executable behind every `dune build @<gate>`
   alias.

     gates.exe <gate>

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
   differential  @differential  yes       60 s   12 Difftest seeds, each explained by its
                                                 Dlin spec under every configuration of
                                                 Difftest.matrix
   fams          @fams          no       120 s   full-size `fams` grid: fams_claims
   mod           @mod           no       120 s   full-size `algorithms` grid: mod_claims
   parallel      @parallel      yes       60 s   quick Fig 3 bank panel byte-identical at
                                                 --jobs 1, 2 and 4; quick kvserve sweep
                                                 byte-identical across a rerun and --jobs 2
   speedup       @speedup       yes       60 s   quick Fig 3 btree-insert panel: its cells and
                                                 minor/major GC words, minor collections and
                                                 promoted words per simulated event regress
                                                 vs BENCH_speedup.json
   results       @results       yes      120 s   each quick experiment below, run once at
                                                 --jobs 1: its tables byte-identical to the
                                                 committed results/quick/<experiment>-<i>.csv
                                                 (a missing or extra table fails), and the
                                                 same run judged by its row of `judged` (a
                                                 row not in the list fails): orec-size
                                                 monotone; htm's Transient = eADR and
                                                 eADR HTM > redo at 32 threads;
                                                 algorithms and fams claims +
                                                 regress vs BENCH_<name>.json; kvserve and
                                                 trace equal BENCH_<name>.json exactly, and
                                                 `ptm_bench regress` bites; scaling's ADR
                                                 flush economy; reserve-energy's domain
                                                 order; telemetry's artifacts (schema, exact
                                                 phase sums, a rerun byte-identical); each
                                                 run's Driver results match, in order,
                                                 the cells Experiments.cells lists; prints
                                                 host seconds and minor words (no check)

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

let capture (r : Driver.result) =
  match r.Driver.telemetry with Some cap -> cap | None -> failwith "run without telemetry"

let profile r = Telemetry.profile (capture r)

(* ---------- crashtest ---------- *)

(* One cell's line: its counts, then each failure with its replay line. *)
let pp_report ppf (r : Engine.report) =
  Format.fprintf ppf "crashtest %s/%s/%s seed=%d: %d/%d points (T=%dns)" r.scenario r.model
    r.algorithm r.seed r.tested r.candidates r.final_time;
  match r.failures with
  | [] -> Format.fprintf ppf " all pass"
  | fs ->
    List.iter
      (fun (f : Engine.failure) ->
        Format.fprintf ppf "@.  FAIL at %dns (min %dns): %s@.  replay: %s" f.crash_at
          f.min_crash_at f.reason f.replay;
        match f.telemetry_dir with
        | Some dir -> Format.fprintf ppf "@.  telemetry: %s" dir
        | None -> ())
      fs

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

let crashtest () =
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
        Format.printf "%a@." pp_report report;
        check
          (Printf.sprintf "cell %s/%s/%s" report.Engine.scenario report.Engine.model
             report.Engine.algorithm)
          (Engine.ok report))
      cells;
    if !failures = 0 then Printf.printf "all %d cells passed\n%!" (List.length cells)

(* ---------- differential ---------- *)

let differential () =
  let seeds = List.init 12 (fun i -> 1 + i) in
  List.iter
    (fun seed ->
      match Difftest.check_seed seed with
      | Ok () -> ()
      | Error e -> check ("difftest: " ^ e) false)
    seeds;
  Printf.printf "differential: %d seeds x %d configurations\n"
    (List.length seeds)
    (List.length Difftest.matrix)

(* ---------- fams and mod: the claims, on quick or full grids ---------- *)

(* The FAMS grid's shape, and line tracking strictly beating page
   tracking on write amp with fences and flushes that follow the
   durability domain. *)
let fams_claims (outcome : Experiments.outcome) cells =
  let workloads = [ "fams-bank"; "fams-kv"; "fams-btree" ] in
  let models = [ "ADR"; "eADR"; "transient"; "PDRAM"; "PDRAM-Lite" ] in
  let series = [ "fams-line"; "fams-page" ] in
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
    workloads

let fams () =
  let outcome, cells = Experiments.fams_run () in
  fams_claims outcome cells

let fences_per_commit r =
  let p = profile r in
  let fences = (Profile.run_total p).fences in
  float_of_int fences /. float_of_int (max 1 (Profile.run_sum p Profile.commits))

(* The `algorithms` grid's shape, and MOD's ordering-economy crossover
   (arXiv 1908.11850): at most one fence per update on ADR, fewer than
   redo, none where the domain needs no flush. *)
let mod_claims results =
  let workloads = [ "mod-btree"; "mod-hash" ] in
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
    workloads

let mod_ () = mod_claims ((List.assoc "algorithms" Experiments.all) ()).Experiments.results

(* ---------- parallel: byte identity across --jobs ---------- *)

(* The experiment layer promises that --jobs buys wall-clock time only.
   A mismatch means a cell observed state outside itself: a shared RNG,
   a process-global counter, a telemetry sink written from two domains.
   The service adds the codec -> router -> batch -> commit path, and a
   second serial run catches state left over from the first. *)
let parallel () =
  let same_at label run jobs_list =
    let reference = render (run 1).Experiments.tables in
    List.iter
      (fun jobs ->
        same_bytes (Printf.sprintf "%s --jobs %d vs a first --jobs 1 run" label jobs) ~reference
          (render (run jobs).Experiments.tables))
      jobs_list
  in
  same_at "fig3 bank panel"
    (fun jobs -> Experiments.fig3_panel ~quick:true ~jobs Workloads.Bank.spec)
    [ 2; 4 ];
  same_at "kvserve" (fun jobs -> (List.assoc "kvserve" Experiments.all) ~quick:true ~jobs ()) [ 1; 2 ]

(* ---------- speedup ---------- *)

(* The simulator's own allocation: the quick btree-insert panel's cells
   and GC counters per simulated event against BENCH_speedup.json.  The
   gate runs nothing else, so its process counts the same words as the
   `ptm_bench experiment speedup` run that recorded the baseline. *)
let speedup () =
  let outcome = Experiments.speedup ~quick:true () in
  List.iter
    (fun (k, v) -> Printf.printf "speedup %s: %s\n%!" k (J.to_string v))
    outcome.Experiments.extra;
  regress_vs_committed ~experiment:"speedup" ~extra:outcome.Experiments.extra
    outcome.Experiments.results

(* ---------- results ---------- *)

let lines s = String.split_on_char '\n' (String.trim s)

let is_object s =
  let n = String.length s in
  n >= 2 && s.[0] = '{' && s.[n - 1] = '}'

(* "nan"/"inf" can only come from a float leaking into the emitters;
   "-" digits only from a negative duration or counter.  Both are
   schema violations anywhere in any artifact. *)
let check_no_bad_numbers cell name content =
  let l = String.length content in
  let has sub =
    let n = String.length sub in
    let rec at i j = j = n || (content.[i + j] = sub.[j] && at i (j + 1)) in
    let rec go i = i + n <= l && (at i 0 || go (i + 1)) in
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
      check (Printf.sprintf "%s profile.jsonl:%d: a JSON object" cell (i + 1)) (is_object l))
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

(* The quick-size experiment tables are the refactor bar: simulation
   is deterministic, so any byte that moves is a behaviour change.
   The experiments too slow for runtest are left out.  After a
   deliberate behaviour change, regenerate the reference files from
   the repository root with

     dune exec bin/ptm_bench.exe -- experiment --quick --jobs 1 --csv results/quick \
       table1 table2 table3 fig7 fig8 logsize flush-timing orec-size htm scaling \
       reserve-energy algorithms fams telemetry kvserve trace

   and explain the diff in the commit. *)
let results_dir = "results/quick"

let results_experiments =
  [
    "table1"; "table2"; "table3"; "fig7"; "fig8"; "logsize"; "flush-timing"; "orec-size"; "htm";
    "scaling"; "reserve-energy"; "algorithms"; "fams"; "telemetry"; "kvserve"; "trace";
  ]

let quick name = (List.assoc name Experiments.all) ~quick:true ~jobs:1 ()

(* More orecs can only reduce false conflicts: throughput at 2^20
   orecs must beat 2^10. *)
let orec_monotone results =
  match results with
  | [ first; _; _; _; _; last ] ->
    check
      (Printf.sprintf "orec-size: 2^20 orecs (%.0f tx/s) beat 2^10 (%.0f tx/s)"
         last.Driver.txs_per_sec first.Driver.txs_per_sec)
      (last.Driver.txs_per_sec > first.Driver.txs_per_sec)
  | rs -> check (Printf.sprintf "orec-size: six sizes (got %d)" (List.length rs)) false

(* HTM on the flush-free domains: a transiently persistent cache runs
   HTM exactly as eADR does, cell for cell, and at 32 threads eADR's
   HTM beats its redo log on every panel. *)
let htm_claims results =
  let series model algorithm =
    List.filter (fun r -> r.Driver.model = model && r.Driver.algorithm = algorithm) results
  in
  let eadr_htm = series "optane-eadr" "htm" and eadr_redo = series "optane-eadr" "redo" in
  let transient_htm = series "transient-cache" "htm" in
  let cells = List.length eadr_htm in
  let paired = cells > 0 && List.length transient_htm = cells && List.length eadr_redo = cells in
  check (Printf.sprintf "htm: %d eADR_htm cells, as many Transient_htm and eADR_redo" cells) paired;
  if paired then
    List.iter2
      (fun (h, t) r ->
        let cell = Printf.sprintf "htm: %s, %d threads" h.Driver.workload h.Driver.threads in
        check
          (Printf.sprintf "%s: Transient_htm %.4f = eADR_htm %.4f M tx/s" cell
             (t.Driver.txs_per_sec /. 1e6) (h.Driver.txs_per_sec /. 1e6))
          (t.Driver.txs_per_sec = h.Driver.txs_per_sec);
        if h.Driver.threads = 32 then
          check
            (Printf.sprintf "%s: eADR_htm %.2f beats eADR_redo %.2f M tx/s" cell
               (h.Driver.txs_per_sec /. 1e6) (r.Driver.txs_per_sec /. 1e6))
            (h.Driver.txs_per_sec > r.Driver.txs_per_sec))
      (List.combine eadr_htm transient_htm)
      eadr_redo

(* The regression sentinel must bite: `ptm_bench regress` passes a
   trace record against itself and exits 1 once every p99_ns in a copy
   is doubled. *)
let regress_bites (outcome : Experiments.outcome) =
  let bench_exe =
    Filename.concat (Filename.dirname Sys.executable_name) "../../bin/ptm_bench.exe"
  in
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
    let path = Filename.temp_file "trace_record" suffix in
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
  List.iter Sys.remove [ baseline; same; worse ]

(* Flush coalescing pays on ADR at every thread count.  `scaling` runs
   its coalesced rows before its naive ones: coalesced spends strictly
   fewer fences and clwbs per commit and reports fences saved, naive
   reports none. *)
let bank_economy results =
  let adr = List.filter (fun r -> r.Driver.model = "optane-adr") results in
  let n = List.length adr / 2 in
  check "scaling: as many ADR naive rows as coalesced" (n > 0 && List.length adr = 2 * n);
  let economy (r : Driver.result) =
    let p = profile r in
    let { Profile.fences; flushes = clwbs; _ } = Profile.run_total p in
    let per x = float_of_int x /. float_of_int (max 1 r.Driver.commits) in
    (per fences, per clwbs, Profile.run_sum p Profile.fences_saved)
  in
  List.iteri
    (fun i c ->
      let cell = Printf.sprintf "scaling: ADR, %d threads" c.Driver.threads in
      let fences_c, clwbs_c, saved_c = economy c in
      let fences_n, clwbs_n, saved_n = economy (List.nth adr (n + i)) in
      List.iter
        (fun (what, co, na) ->
          let msg = Printf.sprintf "%s: coalesced %s/commit %.2f < naive %.2f" cell what co na in
          check msg (co < na))
        [ ("fences", fences_c, fences_n); ("clwbs", clwbs_c, clwbs_n) ];
      check (cell ^ ": coalesced run reports fences saved") (saved_c > 0);
      check (Printf.sprintf "%s: naive run reports %d fences saved" cell saved_n) (saved_n = 0))
    (List.filteri (fun i _ -> i < n) adr)

(* The reserve-power argument (arXiv 2210.17377): each domain's peak
   reserve energy strictly below the next one's. *)
let energy_ordering results =
  let peak_uj name =
    match List.find_opt (fun r -> r.Driver.model = name) results with
    | Some r -> snd (Experiments.reserve_peak r) /. 1e3
    | None -> nan
  in
  let rec ascending = function
    | a :: (b :: _ as rest) ->
      let pa = peak_uj a and pb = peak_uj b in
      check (Printf.sprintf "reserve-energy: %s (%.2f uJ) below %s (%.2f uJ)" a pa b pb) (pa < pb);
      ascending rest
    | _ -> ()
  in
  ascending [ "optane-adr"; "transient-cache"; "optane-eadr"; "pdram-lite"; "pdram" ]

(* Each `telemetry` run commits, its phases sum to its transaction
   time, its artifacts keep their schema, and a rerun of the experiment
   writes them byte for byte.  The header names the run's cell: its
   duration is the cell's configured window. *)
let telemetry_artifacts (o : Experiments.outcome) =
  let files c r = Telemetry.files (Driver.run_meta c r) (capture r) in
  List.iter2
    (fun (c, r) again ->
      let cell = Printf.sprintf "telemetry %s/%s" r.Driver.model r.Driver.algorithm in
      let artifacts = files c r in
      check (cell ^ ": commits") (r.Driver.commits > 0);
      let p = profile r in
      List.iter
        (fun tid ->
          check (Printf.sprintf "%s: tid %d phase sum = txn time" cell tid)
            (Profile.total_phase_ns p ~tid = Profile.txn_ns p ~tid))
        (Profile.tids p);
      List.iter2
        (fun (name, content) (_, rerun) ->
          check_no_bad_numbers cell name content;
          (match name with
          | "profile.jsonl" -> check_jsonl cell content
          | "series.csv" -> check_csv cell content
          | "trace.json" ->
            check (cell ^ " trace.json: a JSON object") (is_object (String.trim content))
          | _ -> check (Printf.sprintf "%s: expected artifact, got %s" cell name) false);
          same_bytes (Printf.sprintf "%s %s rerun" cell name) ~reference:content rerun)
        artifacts (files c again))
    (List.combine (Experiments.cells "telemetry" ~quick:true) o.Experiments.results)
    (quick "telemetry").Experiments.results

(* The experiments judged beyond their tables.  Each row runs its
   experiment once, checks that outcome and returns it, so `results`
   compares the tables of the same run.  kvserve's and trace's records
   hold only virtual numbers, so any move is a change; algorithms and
   fams fail only on a regression. *)
let on_quick name judge = (name, fun () -> let o = quick name in judge o; o)

let judged =
  [
    on_quick "orec-size" (fun o -> orec_monotone o.Experiments.results);
    on_quick "htm" (fun o -> htm_claims o.Experiments.results);
    on_quick "algorithms" (fun o ->
        mod_claims o.Experiments.results;
        regress_vs_committed ~experiment:"algorithms" o.Experiments.results);
    ( "fams",
      fun () ->
        let o, cells = Experiments.fams_run ~quick:true ~jobs:1 () in
        fams_claims o cells;
        regress_vs_committed ~experiment:"fams" ~extra:o.Experiments.extra o.Experiments.results;
        o );
    on_quick "kvserve" (fun o ->
        regress_vs_committed ~exact:true ~experiment:"kvserve" ~extra:o.Experiments.extra
          o.Experiments.results);
    on_quick "trace" (fun o ->
        regress_vs_committed ~exact:true ~experiment:"trace" ~extra:o.Experiments.extra
          o.Experiments.results;
        regress_bites o);
    on_quick "scaling" (fun o -> bank_economy o.Experiments.results);
    on_quick "reserve-energy" (fun o -> energy_ordering o.Experiments.results);
    on_quick "telemetry" telemetry_artifacts;
  ]

(* The listing is the run: [Experiments.cells] names, in order, the
   workload, model, algorithm and threads of every Driver result the
   experiment returned.  fams's FAMS rows, whose algorithm is a FAMS
   series, come from no Driver cell. *)
let listing_matches name (o : Experiments.outcome) =
  let of_cell (c : Driver.cell) =
    ( c.spec.Driver.name,
      c.config.Memsim.Config.model.Memsim.Config.model_name,
      Ptm.algorithm_name c.algorithm,
      c.threads )
  in
  let of_result (r : Driver.result) = (r.workload, r.model, r.algorithm, r.threads) in
  let driver_results =
    List.filter (fun r -> Ptm.algorithm_of_name r.Driver.algorithm <> None) o.Experiments.results
  in
  check
    (Printf.sprintf "%s: Experiments.cells lists the cells it ran, in order" name)
    (List.map of_cell (Experiments.cells name ~quick:true) = List.map of_result driver_results)

(* A judged row outside [results_experiments] would never run, and a
   name outside [Experiments.all] cannot: both fail before any run.
   Each experiment's run also prints its host cost (wall seconds and
   minor words, judgement included), so the log shows where the gate's
   time goes.  Informational only: no check reads these lines. *)
let results () =
  List.iter
    (fun (name, _) ->
      check (Printf.sprintf "judged row %s: not in results_experiments" name)
        (List.mem name results_experiments))
    judged;
  List.iter
    (fun name ->
      check (Printf.sprintf "%s: not in Experiments.all" name)
        (List.mem_assoc name Experiments.all))
    results_experiments;
  if !failures = 0 then begin
    let rendered =
      List.concat_map
        (fun name ->
          let run = Option.value (List.assoc_opt name judged) ~default:(fun () -> quick name) in
          let t0 = Unix.gettimeofday () and w0 = Gc.minor_words () in
          let outcome = run () in
          Printf.printf "%s: ran in %.2f s host, %.1f M minor words\n%!" name
            (Unix.gettimeofday () -. t0)
            ((Gc.minor_words () -. w0) /. 1e6);
          listing_matches name outcome;
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
  end

(* ---------- the table ---------- *)

type gate = { name : string; budget_s : float; run : unit -> unit }

let gates =
  [
    { name = "crashtest"; budget_s = 600.0; run = crashtest };
    { name = "differential"; budget_s = 60.0; run = differential };
    { name = "fams"; budget_s = 120.0; run = fams };
    { name = "mod"; budget_s = 120.0; run = mod_ };
    { name = "parallel"; budget_s = 60.0; run = parallel };
    { name = "speedup"; budget_s = 60.0; run = speedup };
    { name = "results"; budget_s = 120.0; run = results };
  ]

let () =
  let names = String.concat " " (List.map (fun g -> g.name) gates) in
  let gate =
    match List.tl (Array.to_list Sys.argv) with
    | [ name ] -> name
    | _ -> usage_error "usage: gates.exe <gate>\ngates: %s" names
  in
  match List.find_opt (fun g -> g.name = gate) gates with
  | None -> usage_error "gates.exe: unknown gate %S\ngates: %s" gate names
  | Some g ->
    g.run ();
    let elapsed = Unix.gettimeofday () -. started in
    if !failures > 0 then begin
      Printf.printf "%s: %d check(s) FAILED in %.1fs\n%!" g.name !failures elapsed;
      exit 1
    end
    else if elapsed > g.budget_s then begin
      Printf.printf "%s: all checks passed but %.1fs exceeds the %.0fs budget\n%!" g.name elapsed
        g.budget_s;
      exit 1
    end
    else
      Printf.printf "%s: all checks passed in %.1fs (budget %.0fs)\n%!" g.name elapsed g.budget_s
