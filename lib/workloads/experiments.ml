module Table = Repro_util.Table
module Config = Memsim.Config
module Ptm = Pstm.Ptm
module Pool = Parallel.Pool
module Histogram = Repro_util.Histogram
module Service = Kvserve.Service
module Client = Kvserve.Client
module Trace = Telemetry.Trace

type outcome = {
  tables : Table.t list;
  results : Driver.result list;
  extra : (string * Bench_json.json) list;  (* experiment-specific JSON spliced into BENCH_*.json *)
}

let threads_axis = [ 1; 2; 4; 8; 16; 32 ]

let duration quick = if quick then 500_000 else 3_000_000

(* A cell measured for the experiment size's window. *)
let cell ~quick = Driver.cell ~duration_ns:(duration quick)

(* A Driver-backed experiment at one size: its cells in row-major
   order, and its tables rendered from their results in that order. *)
type plan = { cells : Driver.cell list; render : Driver.result list -> Table.t list }

(* Every cell is one pool task — an independent, deterministic
   simulation — and all run in one [Pool.run] with up to [jobs]
   workers.  The pool returns results in submission order, so the
   tables rendered from them are byte-identical to a serial run
   regardless of [jobs]. *)
let grid ?jobs cells = Pool.run ?jobs (List.map (fun c () -> Driver.run_cell c) cells)

let outcome_of ?jobs plan =
  let results = grid ?jobs plan.cells in
  { tables = plan.render results; results; extra = [] }

(* [f x y] for every [x] of [xs], then every [y] of [ys]: row-major. *)
let cross f xs ys = List.concat_map (fun x -> List.map (f x) ys) xs

let take n xs = List.filteri (fun i _ -> i < n) xs
let drop n xs = List.filteri (fun i _ -> i >= n) xs

(* [xs] cut into consecutive runs of [n]. *)
let rec runs n = function [] -> [] | xs -> take n xs :: runs n (drop n xs)

(* A one-table plan: row [x] of [xs] runs the cells [cells_of x] and
   reads [row x rs] off their results [rs]. *)
let one_table ~title ~header xs cells_of row =
  let cells = List.map cells_of xs in
  let render results =
    let t = Table.create ~title ~header in
    let add rs x cs =
      let n = List.length cs in
      Table.add_row t (row x (take n rs));
      drop n rs
    in
    ignore (List.fold_left2 add results xs cells);
    [ t ]
  in
  { cells = List.concat cells; render }

(* Plans run as one: their cells in order, then their tables in order. *)
let concat plans =
  let render results =
    let each rs p = (drop (List.length p.cells) rs, p.render (take (List.length p.cells) rs)) in
    List.concat (snd (List.fold_left_map each results plans))
  in
  { cells = List.concat_map (fun p -> p.cells) plans; render }

let mtx_per_s (r : Driver.result) = Table.cell_f (r.Driver.txs_per_sec /. 1e6)

let commits_per_abort (r : Driver.result) =
  if r.Driver.commits_per_abort = infinity then "-" else Table.cell_f r.Driver.commits_per_abort

(* The eight Fig 3/4 series: placement x durability x logging. *)
let fig3_series =
  [
    ("DRAM_ADR_R", Config.dram_adr, Ptm.Redo);
    ("DRAM_ADR_U", Config.dram_adr, Ptm.Undo);
    ("DRAM_eADR_R", Config.dram_eadr, Ptm.Redo);
    ("DRAM_eADR_U", Config.dram_eadr, Ptm.Undo);
    ("Optane_ADR_R", Config.optane_adr, Ptm.Redo);
    ("Optane_ADR_U", Config.optane_adr, Ptm.Undo);
    ("Optane_eADR_R", Config.optane_eadr, Ptm.Redo);
    ("Optane_eADR_U", Config.optane_eadr, Ptm.Undo);
  ]

(* The five Fig 6/7 series (durability models; redo unless noted). *)
let fig6_series =
  [
    ("DRAM", Config.dram_eadr, Ptm.Redo);
    ("eADR", Config.optane_eadr, Ptm.Redo);
    ("PDRAM_R", Config.pdram, Ptm.Redo);
    ("PDRAM_U", Config.pdram, Ptm.Undo);
    ("PDRAM-Lite", Config.pdram_lite, Ptm.Redo);
  ]

let main_panels () =
  [
    Btree_bench.insert_only;
    Btree_bench.mixed;
    Tpcc.spec Tpcc.Btree;
    Tpcc.spec Tpcc.Hash;
    Vacation.spec Vacation.Low;
    Vacation.spec Vacation.High;
  ]

(* One throughput-vs-threads table per workload panel. *)
let sweep ~quick ~title ~series specs =
  concat
    (List.map
       (fun spec ->
         one_table
           ~title:(Printf.sprintf "%s — %s (M tx/s by thread count)" title spec.Driver.name)
           ~header:("series" :: List.map string_of_int threads_axis)
           series
           (fun (_, model, algorithm) ->
             List.map (fun threads -> cell ~quick ~model ~algorithm ~threads spec) threads_axis)
           (fun (label, _, _) rs -> label :: List.map mtx_per_s rs))
       specs)

(* Throughput vs threads for the six B+Tree/TPCC/Vacation panels,
   DRAM vs Optane x ADR vs eADR x undo vs redo. *)
let fig3 ~quick = sweep ~quick ~title:"Fig 3" ~series:fig3_series (main_panels ())

(* Fig 3's comparison for TATP. *)
let fig4 ~quick = sweep ~quick ~title:"Fig 4" ~series:fig3_series [ Tatp.spec ]

(* One panel of Fig 3 — the unit the parallel byte-identity gate and
   the speedup self-benchmark sweep, so they stay quick-sized. *)
let panel ~quick spec = sweep ~quick ~title:"Fig 3" ~series:fig3_series [ spec ]

let fig3_panel ?(quick = false) ?jobs spec = outcome_of ?jobs (panel ~quick spec)

(* Tables I/II: commits-per-abort for TPCC (hash), one row per
   placement/durability pair, one column per thread count >= 2. *)
let ratio_table ~quick ~title algorithm =
  let threads = List.filter (fun n -> n > 1) threads_axis in
  one_table
    ~title:
      (Printf.sprintf "%s — commits per abort, TPCC (hash), %s" title
         (Ptm.algorithm_name algorithm))
    ~header:("config" :: List.map string_of_int threads)
    [
      ("DRAM_ADR", Config.dram_adr);
      ("DRAM_eADR", Config.dram_eadr);
      ("Optane_ADR", Config.optane_adr);
      ("Optane_eADR", Config.optane_eadr);
    ]
    (fun (_, model) ->
      List.map (fun n -> cell ~quick ~model ~algorithm ~threads:n (Tpcc.spec Tpcc.Hash)) threads)
    (fun (label, _) rs -> label :: List.map commits_per_abort rs)

(* Commits per abort, TPCC (hash), with redo (Table I) and undo
   (Table II) logging. *)
let table1 ~quick = ratio_table ~quick ~title:"Table I" Ptm.Redo

let table2 ~quick = ratio_table ~quick ~title:"Table II" Ptm.Undo

(* Table III: throughput gain of the (incorrect) flush-without-fence
   variant over correct ADR.  Measured at 4 threads: past the write
   bandwidth saturation point (~4 threads on Optane) both variants are
   WPQ-throughput-bound and the fence gain disappears — the paper's
   machine shows its gains below saturation. *)
let table3 ~quick =
  let specs =
    [ Tpcc.spec Tpcc.Hash; Tatp.spec; Vacation.spec Vacation.Low; Vacation.spec Vacation.High ]
  in
  let gain = function
    | [ base; nofence ] ->
      Printf.sprintf "%+.0f%%"
        (100.0 *. ((nofence.Driver.txs_per_sec /. base.Driver.txs_per_sec) -. 1.0))
    | _ -> assert false
  in
  one_table ~title:"Table III — speedup from removing fences (ADR, 4 threads)"
    ~header:("logging" :: List.map (fun s -> s.Driver.name) specs)
    [ Ptm.Undo; Ptm.Redo ]
    (* Each spec's correct-ADR run, then its fence-free twin. *)
    (fun algorithm ->
      cross
        (fun spec model -> cell ~quick ~model ~algorithm ~threads:4 spec)
        specs [ Config.optane_adr; Config.optane_adr_nofence ])
    (fun algorithm rs -> Ptm.algorithm_name algorithm :: List.map gain (runs 2 rs))

(* Durability-model comparison (DRAM, eADR, PDRAM-R/U, PDRAM-Lite) for
   the six main panels (Fig 6) and for TATP (Fig 7). *)
let fig6 ~quick = sweep ~quick ~title:"Fig 6" ~series:fig6_series (main_panels ())

let fig7 ~quick = sweep ~quick ~title:"Fig 7" ~series:fig6_series [ Tatp.spec ]

(* Fig 8: memcached, one worker, sweeping the working set across the
   L3 (32 KB) and the PDRAM DRAM-cache (96 MB) boundaries.  Sizes are
   the paper's GB values scaled by 2^10 to MB. *)
let fig8_sizes =
  [
    ("32KB", 32 * 1024);
    ("32MB", 32 * 1024 * 1024);
    ("96MB", 96 * 1024 * 1024);
    ("160MB", 160 * 1024 * 1024);
    ("224MB", 224 * 1024 * 1024);
    ("288MB", 288 * 1024 * 1024);
    ("320MB", 320 * 1024 * 1024);
  ]

let fig8_series =
  [
    ("DRAM_R", Config.dram_eadr, Ptm.Redo);
    ("ADR_R", Config.optane_adr, Ptm.Redo);
    ("ADR_U", Config.optane_adr, Ptm.Undo);
    ("eADR_R", Config.optane_eadr, Ptm.Redo);
    ("eADR_U", Config.optane_eadr, Ptm.Undo);
    ("PDRAM", Config.pdram, Ptm.Redo);
    ("PDRAM-Lite", Config.pdram_lite, Ptm.Redo);
  ]

(* Memcached throughput vs working-set size, one worker thread.  The
   paper cannot run the DRAM baseline beyond DRAM: those points have
   no cell and render "n/a". *)
let fig8 ~quick =
  let sizes = if quick then [ List.nth fig8_sizes 0; List.nth fig8_sizes 1 ] else fig8_sizes in
  let runs_at (model : Config.model) (_, bytes) =
    model.Config.data_media <> Config.Dram || bytes <= 96 * 1024 * 1024
  in
  let point model rs size =
    match rs with
    | r :: rest when runs_at model size -> (rest, Table.cell_f (r.Driver.txs_per_sec /. 1e3))
    | _ -> (rs, "n/a")
  in
  one_table ~title:"Fig 8 — memcached, 1 worker (k req/s by working set)"
    ~header:("series" :: List.map fst sizes)
    fig8_series
    (fun (_, model, algorithm) ->
      List.map
        (fun (_, bytes) ->
          cell ~quick ~model ~algorithm ~threads:1
            (Memcached.spec ~items:(Memcached.items_for_bytes bytes)))
        (List.filter (runs_at model) sizes))
    (fun (label, model, _) rs -> label :: snd (List.fold_left_map (point model) rs sizes))

(* §IV-B: the compactness of redo logs that motivates PDRAM-Lite.  The
   largest persistent redo-log footprint (cache lines) per workload; the
   paper reports 37 lines for Vacation and 36 for TPCC. *)
let log_footprint ~quick =
  one_table ~title:"Redo-log footprint (max cache lines per transaction)"
    ~header:[ "workload"; "max lines"; "paper" ]
    [
      (Vacation.spec Vacation.Low, "37 (\"never more than 37 contiguous lines\")");
      (Tpcc.spec Tpcc.Hash, "36 (\"at most 36 cache lines\")");
      (Tatp.spec, "(small)");
    ]
    (fun (spec, _) -> [ cell ~quick ~model:Config.optane_eadr ~algorithm:Ptm.Redo ~threads:8 spec ])
    (fun (spec, paper) rs ->
      [ spec.Driver.name; string_of_int (List.hd rs).Driver.max_log_lines; paper ])

(* §III-B: incremental vs commit-time flushing of the redo log (the
   paper found no noticeable difference). *)
let flush_timing_ablation ~quick =
  let delta = function
    | [ a; b ] ->
      [
        mtx_per_s a;
        mtx_per_s b;
        Printf.sprintf "%+.1f%%" (100.0 *. ((b.Driver.txs_per_sec /. a.Driver.txs_per_sec) -. 1.0));
      ]
    | _ -> assert false
  in
  one_table ~title:"Ablation — clwb timing of the redo log (ADR, M tx/s)"
    ~header:[ "workload"; "threads"; "at-commit"; "incremental"; "delta" ]
    (cross (fun spec n -> (spec, n)) [ Tpcc.spec Tpcc.Hash; Tatp.spec ] [ 1; 8 ])
    (fun (spec, threads) ->
      List.map
        (fun flush_timing ->
          { (cell ~quick ~model:Config.optane_adr ~algorithm:Ptm.Redo ~threads spec) with
            flush_timing })
        [ Ptm.At_commit; Ptm.Incremental ])
    (fun (spec, threads) rs -> spec.Driver.name :: string_of_int threads :: delta rs)

(* Design-choice ablation: orec-table size vs false conflicts. *)
let orec_ablation ~quick =
  one_table ~title:"Ablation — ownership-record table size (TPCC hash, redo, 16 threads)"
    ~header:[ "orec bits"; "M tx/s"; "commits/abort" ]
    [ 10; 12; 14; 16; 18; 20 ]
    (fun orec_bits ->
      [
        { (cell ~quick ~model:Config.optane_eadr ~algorithm:Ptm.Redo ~threads:16
             (Tpcc.spec Tpcc.Hash)) with
          orec_bits };
      ])
    (fun bits rs -> [ string_of_int bits; mtx_per_s (List.hd rs); commits_per_abort (List.hd rs) ])

(* ---------- extensions beyond the paper's evaluation ---------- *)

(* §V future work: "is HTM a viable strategy for accelerating PTM?  It
   might work with eADR and PDRAM."  Compare the TSX-style mode against
   the software paths under the flush-free domains. *)
let htm ~quick =
  let series =
    [
      ("eADR_redo", Config.optane_eadr, Ptm.Redo);
      ("eADR_undo", Config.optane_eadr, Ptm.Undo);
      ("eADR_htm", Config.optane_eadr, Ptm.Htm);
      ("PDRAM_redo", Config.pdram, Ptm.Redo);
      ("PDRAM_htm", Config.pdram, Ptm.Htm);
      ("Transient_htm", Config.transient_cache, Ptm.Htm);
      ("HTMcommit_htm", Config.htm_commit, Ptm.Htm);
      ("HTMcommit_redo", Config.htm_commit, Ptm.Redo);
    ]
  in
  sweep ~quick ~title:"Extension — HTM under eADR/PDRAM" ~series
    [ Tpcc.spec Tpcc.Hash; Btree_bench.insert_only; Tatp.spec ]

(* The first sample of strictly greatest reserve energy in a run's
   telemetry series, with that energy in nJ; zero debt and 0 nJ when
   no sample needs any.  The series must hold every sample. *)
let reserve_peak (r : Driver.result) =
  let model = Config.model_of_name r.Driver.model in
  let series =
    match r.Driver.telemetry with
    | Some cap -> Telemetry.series cap
    | None -> invalid_arg "Experiments.reserve_peak: run without telemetry"
  in
  assert (Telemetry.Series.dropped series = 0);
  List.fold_left
    (fun ((_, peak) as best) (s : Telemetry.Series.sample) ->
      let e = Memsim.Sim.Debt.reserve_energy_nj model s.debt in
      if e > peak then (s.debt, e) else best)
    (Memsim.Sim.Debt.zero, 0.0)
    (Telemetry.Series.samples series)

(* §V future work: reserve-power requirements per durability domain.
   The telemetry series samples the persistence debt every 5 us; the
   table reports the peak sample and its reserve energy. *)
let reserve_energy ~quick =
  let telemetry =
    Some { Telemetry.default_config with sample_interval_ns = 5_000; machine_trace_capacity = 0 }
  in
  let row _ rs =
    let r = List.hd rs in
    let d, energy = reserve_peak r in
    [
      r.Driver.model;
      string_of_int d.Memsim.Sim.Debt.wpq_lines;
      string_of_int d.Memsim.Sim.Debt.dirty_l3_lines;
      string_of_int d.Memsim.Sim.Debt.dirty_dram_pages;
      string_of_int d.Memsim.Sim.Debt.armed_log_lines;
      Table.cell_f (energy /. 1e3);
    ]
  in
  one_table ~title:"Extension — reserve-power requirements (TPCC hash, redo, 8 threads)"
    ~header:
      [ "model"; "max WPQ lines"; "max dirty L3"; "max dirty pages"; "max log lines";
        "reserve energy (uJ)" ]
    [
      Config.optane_adr; Config.optane_eadr; Config.transient_cache; Config.pdram_lite;
      Config.pdram;
    ]
    (fun model ->
      [
        { (cell ~quick ~model ~algorithm:Ptm.Redo ~threads:8 (Tpcc.spec Tpcc.Hash)) with
          telemetry };
      ])
    row

let passive = Some { Telemetry.default_config with Telemetry.sample_interval_ns = 0 }

(* [p]'s tables, then a per-commit ordering-economy table with one row
   per cell: its [prefixes] entry, then the fences and clwbs issued per
   commit and those flush coalescing saved, summed from the run's
   passive-telemetry profiler. *)
let with_economy ~title ~header prefixes p =
  let header = header @ [ "fences/commit"; "clwbs/commit"; "fences saved"; "clwbs saved" ] in
  let row t prefix (r : Driver.result) =
    let p = Telemetry.profile (Option.get r.Driver.telemetry) in
    let { Pstm.Profile.fences; flushes; _ } = Pstm.Profile.run_total p in
    let commits = max 1 (Pstm.Profile.run_sum p Pstm.Profile.commits) in
    let per x = Table.cell_f (float_of_int x /. float_of_int commits) in
    Table.add_row t
      (prefix
      @ [
          per fences;
          per flushes;
          per (Pstm.Profile.run_sum p Pstm.Profile.fences_saved);
          per (Pstm.Profile.run_sum p Pstm.Profile.flushes_saved);
        ])
  in
  let render results =
    let t = Table.create ~title ~header in
    List.iter2 (row t) prefixes results;
    p.render results @ [ t ]
  in
  { p with render }

(* Tentpole extension: what software flush coalescing buys.  The bank
   workload's 2-write transfers under ADR pay the full per-entry
   flush/fence discipline when naive; coalesced commits batch the log
   sweep and dedup data lines behind single fences.  Under eADR no
   flushes are issued at all, so the two modes coincide — the hardware
   already did the optimisation.  Bank throughput vs threads for
   {coalesced, naive} x {ADR, eADR} (redo), plus a per-commit
   flush/fence economy table (actual and saved counts from the
   profiler's coalescing ledger). *)
let scaling ~quick =
  let axis = if quick then [ 1; 2; 4 ] else threads_axis in
  let series =
    [
      ("ADR_coalesced", Config.optane_adr, true);
      ("ADR_naive", Config.optane_adr, false);
      ("eADR_coalesced", Config.optane_eadr, true);
      ("eADR_naive", Config.optane_eadr, false);
    ]
  in
  with_economy ~title:"Scaling — flush/fence economy per commit (bank, redo)"
    ~header:[ "series"; "threads" ]
    (cross (fun (label, _, _) n -> [ label; string_of_int n ]) series axis)
    (one_table ~title:"Scaling — bank, redo: coalesced vs naive (M tx/s by thread count)"
       ~header:("series" :: List.map string_of_int axis)
       series
       (fun (_, model, coalesce) ->
         List.map
           (fun threads ->
             { (cell ~quick ~model ~algorithm:Ptm.Redo ~threads Bank.spec) with
               coalesce;
               telemetry = passive })
           axis)
       (fun (label, _, _) rs -> label :: List.map mtx_per_s rs))

(* The five durability domains the algorithms and FAMS grids span, one
   table column each. *)
let domain_columns =
  [
    ("ADR", Config.optane_adr);
    ("eADR", Config.optane_eadr);
    ("transient", Config.transient_cache);
    ("PDRAM", Config.pdram);
    ("PDRAM-Lite", Config.pdram_lite);
  ]

(* Extension: the MOD algorithm column.  The same mixed btree/hash op
   stream runs under redo, undo and MOD across every durability domain
   (Mod_bench routes to the shadow structures under [Mod]), with
   passive telemetry summing the profiler's fence/flush counters per
   commit.  The economy table is the paper-style argument in numbers:
   on ADR, MOD commits with at most one fence per op where the logged
   algorithms pay several, and on eADR / transient-cache every
   algorithm's fence count collapses to zero — the crossover where
   MOD keeps paying its path-copying tax but its ordering advantage
   is gone. *)
let algorithms ~quick =
  let threads = if quick then 2 else 4 in
  (* Every algorithm that runs under every domain column (not HTM). *)
  let algs =
    List.filter
      (fun a ->
        List.for_all
          (fun (_, m) ->
            Ptm.runs_on a ~needs_flush:(Config.needs_flush m)
              ~durable_publish:m.Config.durable_publish)
          domain_columns)
      Ptm.algorithms
  in
  let rows = cross (fun spec a -> (spec, a)) [ Mod_bench.btree; Mod_bench.hash ] algs in
  with_economy ~title:"Algorithms — ordering economy per commit (profiler counters)"
    ~header:[ "workload"; "algorithm"; "model" ]
    (cross
       (fun (spec, a) (column, _) -> [ spec.Driver.name; Ptm.algorithm_name a; column ])
       rows domain_columns)
    (one_table
       ~title:
         (Printf.sprintf "Algorithms — mixed btree/hash throughput, %d threads (M tx/s)" threads)
       ~header:("workload/algorithm" :: List.map fst domain_columns)
       rows
       (fun (spec, algorithm) ->
         List.map
           (fun (_, model) ->
             { (cell ~quick ~model ~algorithm ~threads spec) with telemetry = passive })
           domain_columns)
       (fun (spec, a) rs ->
         (spec.Driver.name ^ "/" ^ Ptm.algorithm_name a) :: List.map mtx_per_s rs))

(* FAMS: the second crash-consistency API.  Each workload shape runs
   through the PTM (redo, one thread — the honest comparison for
   FAMS's single-writer contract) and through failure-atomic msync at
   line and page granularity, across all five durability domains.  The
   economy table carries the subsystem's headline metric: write
   amplification (bytes journaled per byte logically dirtied), plus
   FAMS-issued fences and flushes per sync. *)

type fams_cell = {
  fc_workload : string;
  fc_model : string;
  fc_series : string;
  fc_tx_per_sec : float;
  fc_write_amp : float;
  fc_fences_per_sync : float;
  fc_flushes_per_sync : float;
  fc_bytes_journaled : int;
  fc_bytes_dirtied : int;
  fc_syncs : int;
}

let fams_cell_json c =
  let f x = if Float.is_finite x then Bench_json.Float x else Bench_json.Null in
  Bench_json.Obj
    [
      ("workload", Bench_json.String c.fc_workload);
      ("model", Bench_json.String c.fc_model);
      ("series", Bench_json.String c.fc_series);
      ("tx_per_sec", f c.fc_tx_per_sec);
      ("write_amp", f c.fc_write_amp);
      ("fences_per_sync", f c.fc_fences_per_sync);
      ("flushes_per_sync", f c.fc_flushes_per_sync);
      ("bytes_journaled", Bench_json.Int c.fc_bytes_journaled);
      ("bytes_dirtied", Bench_json.Int c.fc_bytes_dirtied);
      ("syncs", Bench_json.Int c.fc_syncs);
    ]

(* Each FAMS shape next to its PTM twin. *)
let fams_pairs =
  [
    (Fams_bench.bank, Bank.spec);
    (Fams_bench.kv, Mod_bench.hash);
    (Fams_bench.btree, Btree_bench.insert_only);
  ]

(* The ptm-redo row of a pair: its PTM twin, redo, one thread. *)
let fams_ptm_cell ~quick ptm_spec model =
  cell ~quick ~model ~algorithm:Ptm.Redo ~threads:1 ptm_spec

(* The grid's Driver cells: the ptm-redo rows, in grid order. *)
let fams_cells ~quick =
  cross
    (fun (_, ptm_spec) (_, model) -> fams_ptm_cell ~quick ptm_spec model)
    fams_pairs domain_columns

let fams_run ?(quick = false) ?jobs () =
  let series =
    [
      ("ptm-redo", None);
      (Fams_bench.series_name Fams.Line, Some Fams.Line);
      (Fams_bench.series_name Fams.Page, Some Fams.Page);
    ]
  in
  let tput =
    Table.create ~title:"FAMS — PTM redo vs failure-atomic msync, 1 thread (M ops/s)"
      ~header:("workload/series" :: List.map fst domain_columns)
  in
  let economy =
    Table.create ~title:"FAMS — snapshot economy per sync (line vs page granularity)"
      ~header:
        [
          "workload"; "series"; "model"; "write amp"; "fences/sync"; "flushes/sync";
          "KiB journaled"; "KiB dirtied";
        ]
  in
  let rows = cross (fun pair s -> (pair, s)) fams_pairs series in
  let run (((fspec : Fams_bench.spec), ptm_spec), (series_name, g)) (model_name, model) () =
    match g with
    | None -> (Driver.run_cell (fams_ptm_cell ~quick ptm_spec model), None)
    | Some granularity ->
      let r = Fams_bench.run ~duration_ns:(duration quick) ~model ~granularity fspec in
      let st = r.Fams_bench.fams in
      let per x = float_of_int x /. float_of_int (max 1 st.Fams.Stats.syncs) in
      ( r.Fams_bench.driver,
        Some
          {
            fc_workload = fspec.Fams_bench.name;
            fc_model = model_name;
            fc_series = series_name;
            fc_tx_per_sec = r.Fams_bench.driver.Driver.txs_per_sec;
            fc_write_amp = Fams.Stats.write_amp st;
            fc_fences_per_sync = per st.Fams.Stats.fences;
            fc_flushes_per_sync = per st.Fams.Stats.flushes;
            fc_bytes_journaled = st.Fams.Stats.bytes_journaled;
            fc_bytes_dirtied = st.Fams.Stats.bytes_dirtied;
            fc_syncs = st.Fams.Stats.syncs;
          } )
  in
  let points =
    Pool.run ?jobs (cross run rows domain_columns)
  in
  List.iter2
    (fun (((fspec : Fams_bench.spec), _), (series_name, _)) rs ->
      Table.add_row tput
        ((fspec.Fams_bench.name ^ "/" ^ series_name) :: List.map (fun (r, _) -> mtx_per_s r) rs))
    rows
    (runs (List.length domain_columns) points);
  let cells = List.filter_map snd points in
  List.iter
    (fun c ->
      Table.add_row economy
        [
          c.fc_workload;
          c.fc_series;
          c.fc_model;
          Table.cell_f c.fc_write_amp;
          Table.cell_f c.fc_fences_per_sync;
          Table.cell_f c.fc_flushes_per_sync;
          Table.cell_f (float_of_int c.fc_bytes_journaled /. 1024.);
          Table.cell_f (float_of_int c.fc_bytes_dirtied /. 1024.);
        ])
    cells;
  let outcome =
    {
      tables = [ tput; economy ];
      results = List.map fst points;
      extra = [ ("fams_cells", Bench_json.List (List.map fams_cell_json cells)) ];
    }
  in
  (outcome, cells)

(* kvserve: the Fig 8 working-set sweep through the full service path
   (memcached codec -> shard router -> write batch -> commit), plus a
   per-domain restart-recovery table from a mid-run crash.  Unlike
   [fig8], which drives the PTM directly, protocol parsing, batching
   and backpressure are on the measured path.  The per-run metrics,
   including the wall-clock recovery time the tables leave out, land
   in [extra]. *)

(* Working-set sizes: below the L3, around it, and well past it (the
   paper's Fig 8 story at simulation scale — value_bytes is fixed at
   64, so size sweeps the item count and with it the hit rate of the
   Zipf-skewed key stream). *)
let kv_sizes = [ ("32KB", 32 * 1024); ("512KB", 512 * 1024); ("4MB", 4 * 1024 * 1024) ]

let kv_series =
  [
    ("DRAM", Config.dram_eadr);
    ("ADR", Config.optane_adr);
    ("eADR", Config.optane_eadr);
    ("PDRAM-Lite", Config.pdram_lite);
  ]

let kv_recovery_series =
  [
    ("ADR", Config.optane_adr);
    ("eADR", Config.optane_eadr);
    ("PDRAM-Lite", Config.pdram_lite);
  ]

let kv_value_bytes = 64

let rec next_pow2 n k = if k >= n then k else next_pow2 n (k * 2)

let kv_config model ~items =
  let shards = 4 in
  let per_shard = (items / shards) + 1 in
  let base = Service.default_config model in
  {
    base with
    Service.shards;
    model;
    prepopulate_items = items;
    value_bytes = kv_value_bytes;
    buckets_per_shard = max 256 (next_pow2 per_shard 1);
    heap_words_per_shard = max (1 lsl 16) (next_pow2 (per_shard * 48) 1);
  }

let kv_fleet ~quick ~seed ~items =
  Client.generate ~seed ~conns:8
    ~requests_per_conn:(if quick then 60 else 240)
    ~items ~value_bytes:kv_value_bytes ~set_ratio:0.20 ~delete_ratio:0.02 ~incr_ratio:0.05
    ~mean_gap_ns:2_000 ~theta:0.8 ()

let kvserve ~quick ~jobs =
  let sizes = if quick then [ List.nth kv_sizes 0; List.nth kv_sizes 1 ] else kv_sizes in
  let seed = 0x5EED in
  (* -- throughput sweep ------------------------------------------- *)
  let sweep =
    Table.create
      ~title:"kvserve — sharded KV service, 4 shards (k ops/s by working set)"
      ~header:("series" :: List.map fst sizes)
  in
  let sweep_json = ref [] in
  List.iter
    (fun (label, model) ->
      let cells =
        List.map
          (fun (size_label, bytes) ->
            let items = bytes / kv_value_bytes in
            let cfg = kv_config model ~items in
            let r = Service.run ?jobs cfg (kv_fleet ~quick ~seed ~items) in
            sweep_json :=
              Bench_json.Obj
                [
                  ("series", Bench_json.String label);
                  ("working_set", Bench_json.String size_label);
                  ("kv_ops", Bench_json.Int r.Service.kv_ops);
                  ("elapsed_ns", Bench_json.Int r.Service.elapsed_ns);
                  ("ops_per_sec", Bench_json.Float r.Service.ops_per_sec);
                  ("get_hits", Bench_json.Int r.Service.get_hits);
                  ("get_misses", Bench_json.Int r.Service.get_misses);
                  ("imbalance", Bench_json.Float r.Service.imbalance);
                ]
              :: !sweep_json;
            Table.cell_f (r.Service.ops_per_sec /. 1e3))
          sizes
      in
      Table.add_row sweep (label :: cells))
    kv_series;
  (* -- recovery after a mid-run crash, per durability domain ------- *)
  let recovery =
    Table.create
      ~title:"kvserve — full-service restart recovery (crash mid-run)"
      ~header:
        [
          "domain"; "recovery us"; "words scanned"; "replayed"; "rolled back";
          "durable batches"; "re-run ops";
        ]
  in
  let recovery_json = ref [] in
  let crash_items = (256 * 1024) / kv_value_bytes in
  List.iter
    (fun (label, model) ->
      let cfg = kv_config model ~items:crash_items in
      (* Mid-run for either fleet size: the quick fleet's arrival
         horizon is ~120 us, the full one ~480 us. *)
      let crash_at = if quick then 60_000 else 150_000 in
      let r = Service.run ?jobs ~crash_at cfg (kv_fleet ~quick ~seed ~items:crash_items) in
      let recs = r.Service.recoveries in
      let sum f = List.fold_left (fun acc rc -> acc + f rc) 0 recs in
      (* Shards recover in parallel on restart: the service is back
         when the slowest shard is. *)
      let modeled =
        List.fold_left (fun acc rc -> max acc rc.Service.r_modeled_ns) 0 recs
      in
      (* The summed counts, in table-column and JSON-key order. *)
      let counts =
        [
          ("words_scanned", sum (fun rc -> rc.Service.r_words_scanned));
          ("entries_replayed", sum (fun rc -> rc.Service.r_entries_replayed));
          ("entries_rolled_back", sum (fun rc -> rc.Service.r_entries_rolled_back));
          ("durable_batches", sum (fun rc -> rc.Service.r_durable_marker));
          ("replayed_ops", sum (fun rc -> rc.Service.r_replayed_ops));
        ]
      in
      Table.add_row recovery
        (label
        :: Table.cell_f (float_of_int modeled /. 1e3)
        :: List.map (fun (_, n) -> string_of_int n) counts);
      recovery_json :=
        Bench_json.Obj
          (("domain", Bench_json.String label)
          :: ("modeled_recovery_ns", Bench_json.Int modeled)
          :: ("recovery_wall_ns", Bench_json.Int (sum (fun rc -> rc.Service.r_wall_ns)))
          :: List.map (fun (k, n) -> (k, Bench_json.Int n)) counts)
        :: !recovery_json)
    kv_recovery_series;
  {
    tables = [ sweep; recovery ];
    results = [];
    extra =
      [
        ("kvserve_sweep", Bench_json.List (List.rev !sweep_json));
        ("kvserve_recovery", Bench_json.List (List.rev !recovery_json));
      ];
  }

(* -- trace experiment: tail-latency attribution per domain ---------- *)

let blame_json (b : Trace.blame) =
  Bench_json.Obj
    [
      ("requests", Bench_json.Int b.Trace.brequests);
      ("band_lo_ns", Bench_json.Int b.Trace.bband_lo_ns);
      ("band_hi_ns", Bench_json.Int b.Trace.bband_hi_ns);
      ("total_latency_ns", Bench_json.Int b.Trace.btotal_latency_ns);
      ("attributed_ns", Bench_json.Int b.Trace.battributed_ns);
      ("slack_ns", Bench_json.Int b.Trace.bslack_ns);
      ( "rows",
        Bench_json.List
          (List.map
             (fun (row : Trace.blame_row) ->
               Bench_json.Obj
                 [
                   ("kind", Bench_json.String row.Trace.bkind);
                   ("spans", Bench_json.Int row.Trace.bspans);
                   ("exclusive_ns", Bench_json.Int row.Trace.bexclusive_ns);
                   ("share_pct", Bench_json.Float row.Trace.bshare);
                 ])
             b.Trace.brows) );
    ]

let trace ~quick ~jobs =
  let seed = 0x5EED in
  let items = (512 * 1024) / kv_value_bytes in
  let latency_tbl =
    Table.create
      ~title:"trace — end-to-end request latency by domain (us, from request spans)"
      ~header:[ "domain"; "requests"; "p50"; "p95"; "p99"; "max"; "slack ns" ]
  in
  let blame_tbl =
    Table.create
      ~title:"trace — tail blame, p95..p100 band (exclusive time by span kind)"
      ~header:[ "domain"; "kind"; "spans"; "exclusive us"; "share %" ]
  in
  let json = ref [] in
  List.iter
    (fun (label, model) ->
      let cfg = { (kv_config model ~items) with Service.trace = true } in
      let r = Service.run ?jobs cfg (kv_fleet ~quick ~seed ~items) in
      let tr = match r.Service.trace with Some tr -> tr | None -> assert false in
      let h = Trace.latency_hist tr in
      let acct = Trace.accounting tr in
      (* Accounting slack: |latency - attributed| summed over requests.
         0 for this fleet (single-key gets), so any drift is a bug. *)
      let slack = List.fold_left (fun acc (_, lat, att) -> acc + abs (lat - att)) 0 acct in
      let whole = Trace.blame tr ~lo_pct:0.0 ~hi_pct:100.0 in
      let tail = Trace.blame tr ~lo_pct:95.0 ~hi_pct:100.0 in
      Table.add_row latency_tbl
        [
          label;
          string_of_int (Histogram.count h);
          Table.cell_f (Histogram.percentile h 50.0 /. 1e3);
          Table.cell_f (Histogram.percentile h 95.0 /. 1e3);
          Table.cell_f (Histogram.percentile h 99.0 /. 1e3);
          Table.cell_f (float_of_int (Histogram.max_value h) /. 1e3);
          string_of_int slack;
        ];
      List.iteri
        (fun i (row : Trace.blame_row) ->
          if i < 4 then
            Table.add_row blame_tbl
              [
                label;
                row.Trace.bkind;
                string_of_int row.Trace.bspans;
                Table.cell_f (float_of_int row.Trace.bexclusive_ns /. 1e3);
                Table.cell_f row.Trace.bshare;
              ])
        tail.Trace.brows;
      json :=
        Bench_json.Obj
          [
            ("domain", Bench_json.String label);
            ("requests", Bench_json.Int (Histogram.count h));
            ("p50_ns", Bench_json.Float (Histogram.percentile h 50.0));
            ("p95_ns", Bench_json.Float (Histogram.percentile h 95.0));
            ("p99_ns", Bench_json.Float (Histogram.percentile h 99.0));
            ("max_ns", Bench_json.Int (Histogram.max_value h));
            ("slack_ns", Bench_json.Int slack);
            ("spans", Bench_json.Int (Trace.length tr));
            ("digest", Bench_json.String (Trace.digest tr));
            ("blame", blame_json whole);
            ("tail_blame", blame_json tail);
          ]
        :: !json)
    kv_series;
  {
    tables = [ latency_tbl; blame_tbl ];
    results = [];
    extra = [ ("trace_domains", Bench_json.List (List.rev !json)) ];
  }

(* Extension: where the virtual time goes.  Instrumented 4-thread bank
   runs under ADR and eADR for both log algorithms, one phase-profile
   table each (the paper's fence-cost story: undo pays a flush+fence
   per write, redo defers to commit), then what flush coalescing saved
   against the naive per-entry path.  `ptm_bench run --telemetry DIR`
   dumps the full profile, series and trace files of one such run. *)
let telemetry ~quick =
  let duration_ns = if quick then 200_000 else 1_000_000 in
  let render results =
    let saved =
      Table.create ~title:"telemetry — coalescing savings vs the naive per-entry path"
        ~header:[ "model"; "algorithm"; "fences saved"; "clwbs saved" ]
    in
    let phase_table (r : Driver.result) =
      let cap = Option.get r.Driver.telemetry in
      let p = Telemetry.profile cap in
      Table.add_row saved
        [
          r.Driver.model;
          r.Driver.algorithm;
          string_of_int (Pstm.Profile.run_sum p Pstm.Profile.fences_saved);
          string_of_int (Pstm.Profile.run_sum p Pstm.Profile.flushes_saved);
        ];
      Telemetry.phase_table cap
        ~title:
          (Printf.sprintf "phase profile: bank on %s (%s, %d commits)" r.Driver.model
             r.Driver.algorithm r.Driver.commits)
    in
    let phase_tables = List.map phase_table results in
    phase_tables @ [ saved ]
  in
  {
    cells =
      List.map
        (fun (model, algorithm) ->
          { (Driver.cell ~duration_ns ~model ~algorithm ~threads:4 Bank.spec) with
            telemetry = Some Telemetry.default_config })
        [
          (Config.optane_adr, Ptm.Redo);
          (Config.optane_adr, Ptm.Undo);
          (Config.optane_eadr, Ptm.Redo);
          (Config.optane_eadr, Ptm.Undo);
        ];
    render;
  }

(* Host cost of the simulator itself: one Fig 3 btree-insert panel
   run in the calling domain, with the GC's minor and major words
   per simulated machine event in [extra].  BENCH_speedup.json tracks
   these two counters across commits; on a shared host they are stable
   where wall clock is not.  Beside them, the GC's pacing: minor
   collections and words promoted per event, which move when a change
   alters when the minor heap is collected (e.g. how many stores enter
   the remembered set) at the same words, and the minor words per
   collection, which rise when collections come later (more of the
   minor heap touched: the peak RSS risk).  Always serial so that
   every allocated word is counted; [jobs] is accepted and ignored.
   [switches_per_event] counts the scheduler's context switches (waits
   that did not advance the clock inline) per event, and
   [resumes_per_event] the switches that resumed a thread: all but the
   program waits the scheduler requeued without a resume. *)
let speedup ?(quick = false) ?jobs:_ () =
  let g0 = Gc.quick_stat () in
  let outcome = fig3_panel ~quick ~jobs:1 Btree_bench.insert_only in
  let g1 = Gc.quick_stat () in
  let events = List.fold_left (fun acc r -> acc + Bench_json.events r) 0 outcome.results in
  let per_event words = Bench_json.Float (words /. float_of_int (max 1 events)) in
  let total f = List.fold_left (fun acc r -> acc + f r.Driver.sim) 0 outcome.results in
  let switches = total (fun s -> s.Memsim.Sim.Stats.context_switches) in
  let settled = total (fun s -> s.Memsim.Sim.Stats.settled_waits) in
  let minor_words = g1.Gc.minor_words -. g0.Gc.minor_words in
  let collections = g1.Gc.minor_collections - g0.Gc.minor_collections in
  {
    outcome with
    extra =
      [
        ("minor_words_per_event", per_event minor_words);
        ("major_words_per_event", per_event (g1.Gc.major_words -. g0.Gc.major_words));
        ("minor_collections_per_event", per_event (float_of_int collections));
        ( "minor_words_per_collection",
          Bench_json.Float (minor_words /. float_of_int (max 1 collections)) );
        ("promoted_words_per_event", per_event (g1.Gc.promoted_words -. g0.Gc.promoted_words));
        ("switches_per_event", per_event (float_of_int switches));
        ("resumes_per_event", per_event (float_of_int (switches - settled)));
      ];
  }

(* Every experiment: the Driver cells it runs at a size, listed without
   running them, and its run.  kvserve and trace drive the service,
   not {!Driver}, and list no cell; fams lists its ptm-redo rows. *)
type experiment = {
  cells : quick:bool -> Driver.cell list;
  run : quick:bool -> jobs:int option -> outcome;
}

let planned (plan : quick:bool -> plan) =
  {
    cells = (fun ~quick -> (plan ~quick).cells);
    run = (fun ~quick ~jobs -> outcome_of ?jobs (plan ~quick));
  }

let registry =
  [
    ("fig3", planned fig3);
    ("fig4", planned fig4);
    ("table1", planned table1);
    ("table2", planned table2);
    ("table3", planned table3);
    ("fig6", planned fig6);
    ("fig7", planned fig7);
    ("fig8", planned fig8);
    ("logsize", planned log_footprint);
    ("flush-timing", planned flush_timing_ablation);
    ("orec-size", planned orec_ablation);
    ("htm", planned htm);
    ("scaling", planned scaling);
    ("reserve-energy", planned reserve_energy);
    ("algorithms", planned algorithms);
    ("fams", { cells = fams_cells; run = (fun ~quick ~jobs -> fst (fams_run ~quick ?jobs ())) });
    ("kvserve", { cells = (fun ~quick:_ -> []); run = kvserve });
    ("trace", { cells = (fun ~quick:_ -> []); run = trace });
    ("telemetry", planned telemetry);
    ( "speedup",
      {
        cells = (fun ~quick -> (panel ~quick Btree_bench.insert_only : plan).cells);
        run = (fun ~quick ~jobs:_ -> speedup ~quick ());
      } );
  ]

let all =
  List.map (fun (name, e) -> (name, fun ?(quick = false) ?jobs () -> e.run ~quick ~jobs)) registry

let cells name ~quick = (List.assoc name registry).cells ~quick

(* The named workloads `ptm_bench run` and `sweep` accept: each
   spec's own name, but memcached's, which carries its item count. *)
let workloads () =
  let named = List.map (fun spec -> (spec.Driver.name, spec)) in
  named
    [
      Bank.spec; Tatp.spec; Tpcc.spec Tpcc.Hash; Tpcc.spec Tpcc.Btree; Btree_bench.insert_only;
      Btree_bench.mixed; Vacation.spec Vacation.Low; Vacation.spec Vacation.High;
    ]
  @ [ ("memcached", Memcached.spec ~items:2_000) ]
  @ named
      (List.map Ycsb.spec Ycsb.[ A; B; C; D; E; F ] @ [ Mod_bench.btree; Mod_bench.hash ])
