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

(* Every grid experiment is two-phase: phase 1 enumerates its cells —
   independent, deterministic [Driver.run] closures — in submission
   order; the domain pool executes them with up to [jobs] workers;
   phase 2 replays the same iteration structure, consuming pooled
   results through a cursor to build the tables.  Because the pool
   returns results in submission order, the output is byte-identical
   to a serial run regardless of [jobs]. *)
let dispatch ?jobs cells =
  let results = ref (Pool.run ?jobs cells) in
  fun () ->
    match !results with
    | [] -> invalid_arg "Experiments: cell cursor exhausted"
    | r :: rest ->
      results := rest;
      r

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
let sweep ?jobs ~quick ~title ~series specs =
  let dur = duration quick in
  let cells =
    List.concat_map
      (fun spec ->
        List.concat_map
          (fun (_, model, algorithm) ->
            List.map
              (fun threads () -> Driver.run ~duration_ns:dur ~model ~algorithm ~threads spec)
              threads_axis)
          series)
      specs
  in
  let next = dispatch ?jobs cells in
  let all_results = ref [] in
  let tables =
    List.map
      (fun spec ->
        let t =
          Table.create
            ~title:(Printf.sprintf "%s — %s (M tx/s by thread count)" title spec.Driver.name)
            ~header:("series" :: List.map string_of_int threads_axis)
        in
        List.iter
          (fun (label, _, _) ->
            let cells =
              List.map
                (fun _threads ->
                  let r = next () in
                  all_results := r :: !all_results;
                  Table.cell_f (r.Driver.txs_per_sec /. 1e6))
                threads_axis
            in
            Table.add_row t (label :: cells))
          series;
        t)
      specs
  in
  { tables; results = List.rev !all_results; extra = [] }

let fig3 ?(quick = false) ?jobs () =
  sweep ?jobs ~quick ~title:"Fig 3" ~series:fig3_series (main_panels ())

let fig4 ?(quick = false) ?jobs () =
  sweep ?jobs ~quick ~title:"Fig 4" ~series:fig3_series [ Tatp.spec ]

(* One panel of Fig 3 — the unit the parallel byte-identity gate and
   the speedup self-benchmark sweep, so they stay quick-sized. *)
let fig3_panel ?(quick = false) ?jobs spec =
  sweep ?jobs ~quick ~title:"Fig 3" ~series:fig3_series [ spec ]

(* Tables I/II: commits-per-abort for TPCC (hash), one row per
   placement/durability pair, one column per thread count >= 2. *)
let ratio_table ?jobs ~quick ~title algorithm =
  let dur = duration quick in
  let rows =
    [
      ("DRAM_ADR", Config.dram_adr);
      ("DRAM_eADR", Config.dram_eadr);
      ("Optane_ADR", Config.optane_adr);
      ("Optane_eADR", Config.optane_eadr);
    ]
  in
  let threads = List.filter (fun n -> n > 1) threads_axis in
  let t =
    Table.create
      ~title:(Printf.sprintf "%s — commits per abort, TPCC (hash), %s" title
                (Ptm.algorithm_name algorithm))
      ~header:("config" :: List.map string_of_int threads)
  in
  let cells =
    List.concat_map
      (fun (_, model) ->
        List.map
          (fun n () ->
            Driver.run ~duration_ns:dur ~model ~algorithm ~threads:n (Tpcc.spec Tpcc.Hash))
          threads)
      rows
  in
  let next = dispatch ?jobs cells in
  let all_results = ref [] in
  List.iter
    (fun (label, _) ->
      let cells =
        List.map
          (fun _n ->
            let r = next () in
            all_results := r :: !all_results;
            if r.Driver.commits_per_abort = infinity then "-"
            else Table.cell_f r.Driver.commits_per_abort)
          threads
      in
      Table.add_row t (label :: cells))
    rows;
  { tables = [ t ]; results = List.rev !all_results; extra = [] }

let table1 ?(quick = false) ?jobs () = ratio_table ?jobs ~quick ~title:"Table I" Ptm.Redo

let table2 ?(quick = false) ?jobs () = ratio_table ?jobs ~quick ~title:"Table II" Ptm.Undo

(* Table III: throughput gain of the (incorrect) flush-without-fence
   variant over correct ADR.  Measured at 4 threads: past the write
   bandwidth saturation point (~4 threads on Optane) both variants are
   WPQ-throughput-bound and the fence gain disappears — the paper's
   machine shows its gains below saturation. *)
let table3 ?(quick = false) ?jobs () =
  let dur = duration quick in
  let specs =
    [ Tpcc.spec Tpcc.Hash; Tatp.spec; Vacation.spec Vacation.Low; Vacation.spec Vacation.High ]
  in
  let t =
    Table.create ~title:"Table III — speedup from removing fences (ADR, 4 threads)"
      ~header:("logging" :: List.map (fun s -> s.Driver.name) specs)
  in
  let cells =
    List.concat_map
      (fun algorithm ->
        List.concat_map
          (fun spec ->
            [
              (fun () ->
                Driver.run ~duration_ns:dur ~model:Config.optane_adr ~algorithm ~threads:4 spec);
              (fun () ->
                Driver.run ~duration_ns:dur ~model:Config.optane_adr_nofence ~algorithm
                  ~threads:4 spec);
            ])
          specs)
      [ Ptm.Undo; Ptm.Redo ]
  in
  let next = dispatch ?jobs cells in
  let all_results = ref [] in
  List.iter
    (fun algorithm ->
      let cells =
        List.map
          (fun _spec ->
            let base = next () in
            let nofence = next () in
            all_results := nofence :: base :: !all_results;
            let pct = 100.0 *. ((nofence.Driver.txs_per_sec /. base.Driver.txs_per_sec) -. 1.0) in
            Printf.sprintf "%+.0f%%" pct)
          specs
      in
      Table.add_row t (Ptm.algorithm_name algorithm :: cells))
    [ Ptm.Undo; Ptm.Redo ];
  { tables = [ t ]; results = List.rev !all_results; extra = [] }

let fig6 ?(quick = false) ?jobs () =
  sweep ?jobs ~quick ~title:"Fig 6" ~series:fig6_series (main_panels ())

let fig7 ?(quick = false) ?jobs () =
  sweep ?jobs ~quick ~title:"Fig 7" ~series:fig6_series [ Tatp.spec ]

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

let fig8 ?(quick = false) ?jobs () =
  let dur = duration quick in
  let sizes = if quick then [ List.nth fig8_sizes 0; List.nth fig8_sizes 1 ] else fig8_sizes in
  let dram_capacity = 96 * 1024 * 1024 in
  (* The paper cannot run the DRAM baseline beyond DRAM; those cells
     render "n/a" and are never staged. *)
  let feasible (model : Config.model) bytes =
    not (model.Config.data_media = Config.Dram && bytes > dram_capacity)
  in
  let t =
    Table.create ~title:"Fig 8 — memcached, 1 worker (k req/s by working set)"
      ~header:("series" :: List.map fst sizes)
  in
  let cells =
    List.concat_map
      (fun (_, model, algorithm) ->
        List.filter_map
          (fun (_, bytes) ->
            if feasible model bytes then
              Some
                (fun () ->
                  let spec = Memcached.spec ~items:(Memcached.items_for_bytes bytes) in
                  Driver.run ~duration_ns:dur ~model ~algorithm ~threads:1 spec)
            else None)
          sizes)
      fig8_series
  in
  let next = dispatch ?jobs cells in
  let all_results = ref [] in
  List.iter
    (fun (label, model, _) ->
      let cells =
        List.map
          (fun (_, bytes) ->
            if not (feasible model bytes) then "n/a"
            else begin
              let r = next () in
              all_results := r :: !all_results;
              Table.cell_f (r.Driver.txs_per_sec /. 1e3)
            end)
          sizes
      in
      Table.add_row t (label :: cells))
    fig8_series;
  { tables = [ t ]; results = List.rev !all_results; extra = [] }

(* §IV-B: the compactness of redo logs that motivates PDRAM-Lite. *)
let log_footprint ?(quick = false) ?jobs () =
  let dur = duration quick in
  let t =
    Table.create ~title:"Redo-log footprint (max cache lines per transaction)"
      ~header:[ "workload"; "max lines"; "paper" ]
  in
  let rows =
    [
      (Vacation.spec Vacation.Low, "37 (\"never more than 37 contiguous lines\")");
      (Tpcc.spec Tpcc.Hash, "36 (\"at most 36 cache lines\")");
      (Tatp.spec, "(small)");
    ]
  in
  let next =
    dispatch ?jobs
      (List.map
         (fun (spec, _) () ->
           Driver.run ~duration_ns:dur ~model:Config.optane_eadr ~algorithm:Ptm.Redo ~threads:8
             spec)
         rows)
  in
  let all_results = ref [] in
  List.iter
    (fun (spec, paper) ->
      let r = next () in
      all_results := r :: !all_results;
      Table.add_row t [ spec.Driver.name; string_of_int r.Driver.max_log_lines; paper ])
    rows;
  { tables = [ t ]; results = List.rev !all_results; extra = [] }

(* §III-B: incremental vs commit-time flushing of the redo log. *)
let flush_timing_ablation ?(quick = false) ?jobs () =
  let dur = duration quick in
  let t =
    Table.create ~title:"Ablation — clwb timing of the redo log (ADR, M tx/s)"
      ~header:[ "workload"; "threads"; "at-commit"; "incremental"; "delta" ]
  in
  let specs = [ Tpcc.spec Tpcc.Hash; Tatp.spec ] in
  let thread_points = [ 1; 8 ] in
  let cells =
    List.concat_map
      (fun spec ->
        List.concat_map
          (fun threads ->
            List.map
              (fun flush_timing () ->
                Driver.run ~duration_ns:dur ~flush_timing ~model:Config.optane_adr
                  ~algorithm:Ptm.Redo ~threads spec)
              [ Ptm.At_commit; Ptm.Incremental ])
          thread_points)
      specs
  in
  let next = dispatch ?jobs cells in
  let all_results = ref [] in
  List.iter
    (fun spec ->
      List.iter
        (fun threads ->
          let a = next () in
          let b = next () in
          all_results := b :: a :: !all_results;
          Table.add_row t
            [
              spec.Driver.name;
              string_of_int threads;
              Table.cell_f (a.Driver.txs_per_sec /. 1e6);
              Table.cell_f (b.Driver.txs_per_sec /. 1e6);
              Printf.sprintf "%+.1f%%"
                (100.0 *. ((b.Driver.txs_per_sec /. a.Driver.txs_per_sec) -. 1.0));
            ])
        thread_points)
    specs;
  { tables = [ t ]; results = List.rev !all_results; extra = [] }

(* Design-choice ablation: orec-table size vs false conflicts. *)
let orec_ablation ?(quick = false) ?jobs () =
  let dur = duration quick in
  let t =
    Table.create ~title:"Ablation — ownership-record table size (TPCC hash, redo, 16 threads)"
      ~header:[ "orec bits"; "M tx/s"; "commits/abort" ]
  in
  let sizes = [ 10; 12; 14; 16; 18; 20 ] in
  let next =
    dispatch ?jobs
      (List.map
         (fun bits () ->
           Driver.run ~duration_ns:dur ~orec_bits:bits ~model:Config.optane_eadr
             ~algorithm:Ptm.Redo ~threads:16 (Tpcc.spec Tpcc.Hash))
         sizes)
  in
  let all_results = ref [] in
  List.iter
    (fun bits ->
      let r = next () in
      all_results := r :: !all_results;
      Table.add_row t
        [
          string_of_int bits;
          Table.cell_f (r.Driver.txs_per_sec /. 1e6);
          (if r.Driver.commits_per_abort = infinity then "-"
           else Table.cell_f r.Driver.commits_per_abort);
        ])
    sizes;
  { tables = [ t ]; results = List.rev !all_results; extra = [] }

(* ---------- extensions beyond the paper's evaluation ---------- *)

(* §V future work: "is HTM a viable strategy for accelerating PTM?  It
   might work with eADR and PDRAM."  Compare the TSX-style mode against
   the software paths under the flush-free domains. *)
let htm ?(quick = false) ?jobs () =
  let dur = duration quick in
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
  sweep ?jobs ~quick:(dur < 3_000_000) ~title:"Extension — HTM under eADR/PDRAM" ~series
    [ Tpcc.spec Tpcc.Hash; Btree_bench.insert_only; Tatp.spec ]

(* §IV-C's cost argument: PDRAM's mechanics are Memory Mode's; how much
   performance does persistence cost relative to the non-persistent
   cache, and where do both sit against eADR? *)
let memory_mode ?(quick = false) ?jobs () =
  let series =
    [
      ("MemoryMode", Config.memory_mode, Ptm.Redo);
      ("PDRAM", Config.pdram, Ptm.Redo);
      ("eADR", Config.optane_eadr, Ptm.Redo);
      ("DRAM", Config.dram_eadr, Ptm.Redo);
    ]
  in
  sweep ?jobs ~quick ~title:"Extension — PDRAM vs Memory Mode" ~series
    [ Tatp.spec; Tpcc.spec Tpcc.Hash ]

(* §V future work: reserve-power requirements per durability domain.
   A monitor thread samples the persistence debt every 5 us; the table
   reports the worst case and the derived reserve energy.  The monitor
   refs live inside each cell, so cells stay shared-nothing. *)
let reserve_energy ?(quick = false) ?jobs () =
  let dur = duration quick in
  let t =
    Repro_util.Table.create
      ~title:"Extension — reserve-power requirements (TPCC hash, redo, 8 threads)"
      ~header:
        [ "model"; "max WPQ lines"; "max dirty L3"; "max dirty pages"; "max log lines";
          "reserve energy (uJ)" ]
  in
  let models =
    [
      Config.optane_adr; Config.optane_eadr; Config.transient_cache; Config.pdram_lite;
      Config.pdram;
    ]
  in
  let cells =
    List.map
      (fun model () ->
        let max_debt = ref { Memsim.Sim.Debt.wpq_lines = 0; dirty_l3_lines = 0;
                             dirty_dram_pages = 0; armed_log_lines = 0 } in
        let max_energy = ref 0.0 in
        let sample sim =
          let d = Memsim.Sim.Debt.sample sim in
          let e = Memsim.Sim.Debt.reserve_energy_nj sim d in
          if e > !max_energy then begin
            max_energy := e;
            max_debt := d
          end
        in
        let r =
          Driver.run ~duration_ns:dur ~monitor:(5_000, sample) ~model ~algorithm:Ptm.Redo
            ~threads:8 (Tpcc.spec Tpcc.Hash)
        in
        (r, !max_debt, !max_energy))
      models
  in
  let next = dispatch ?jobs cells in
  let all_results = ref [] in
  List.iter
    (fun model ->
      let r, d, max_energy = next () in
      all_results := r :: !all_results;
      Repro_util.Table.add_row t
        [
          model.Config.model_name;
          string_of_int d.Memsim.Sim.Debt.wpq_lines;
          string_of_int d.Memsim.Sim.Debt.dirty_l3_lines;
          string_of_int d.Memsim.Sim.Debt.dirty_dram_pages;
          string_of_int d.Memsim.Sim.Debt.armed_log_lines;
          Repro_util.Table.cell_f (max_energy /. 1e3);
        ])
    models;
  { tables = [ t ]; results = List.rev !all_results; extra = [] }

(* Extension: DIMM interleaving (§III-A: "the Optane memory was split
   across 12 DIMMs, and interleaving was enabled.  This is the
   recommended configuration for maximizing throughput").  Channels
   carry per-DIMM service times; aggregate bandwidth grows with the
   channel count. *)
let dimm_interleave ?(quick = false) ?jobs () =
  let dur = duration quick in
  let channel_axis = [ 1; 2; 3; 6; 12 ] in
  let thread_points = [ 1; 8; 16; 32 ] in
  let t =
    Table.create ~title:"Extension — DIMM interleaving (TPCC hash, redo, ADR, M tx/s)"
      ~header:("channels" :: List.map string_of_int thread_points)
  in
  let base = Config.default_latency in
  (* Per-DIMM service = 6x the aggregate default (the default
     calibration folds ~6 interleaved DIMMs into one channel). *)
  let lat =
    {
      base with
      Config.nvm_wpq_service_ns = base.Config.nvm_wpq_service_ns * 6;
      nvm_read_service_ns = base.Config.nvm_read_service_ns * 6;
    }
  in
  let cells =
    List.concat_map
      (fun channels ->
        List.map
          (fun threads () ->
            Driver.run ~duration_ns:dur ~lat ~nvm_channels:channels ~model:Config.optane_adr
              ~algorithm:Ptm.Redo ~threads (Tpcc.spec Tpcc.Hash))
          thread_points)
      channel_axis
  in
  let next = dispatch ?jobs cells in
  let all_results = ref [] in
  List.iter
    (fun channels ->
      let cells =
        List.map
          (fun _threads ->
            let r = next () in
            all_results := r :: !all_results;
            Table.cell_f (r.Driver.txs_per_sec /. 1e6))
          thread_points
      in
      Table.add_row t (string_of_int channels :: cells))
    channel_axis;
  { tables = [ t ]; results = List.rev !all_results; extra = [] }

(* Extension: transaction latency distributions (the paper reports
   only throughput; tail latency is where fences actually hurt). *)
let latency ?(quick = false) ?jobs () =
  let dur = duration quick in
  let t =
    Table.create ~title:"Extension — transaction latency, 8 threads (virtual ns)"
      ~header:[ "workload"; "model"; "p50"; "p95"; "p99"; "mean" ]
  in
  let specs = [ Tatp.spec; Tpcc.spec Tpcc.Hash ] in
  let models = [ Config.dram_eadr; Config.optane_adr; Config.optane_eadr; Config.pdram ] in
  let cells =
    List.concat_map
      (fun spec ->
        List.map
          (fun model () ->
            Driver.run ~duration_ns:dur ~model ~algorithm:Ptm.Redo ~threads:8 spec)
          models)
      specs
  in
  let next = dispatch ?jobs cells in
  let all_results = ref [] in
  List.iter
    (fun spec ->
      List.iter
        (fun model ->
          let r = next () in
          all_results := r :: !all_results;
          let h = r.Driver.latency in
          Table.add_row t
            [
              spec.Driver.name;
              model.Config.model_name;
              Table.cell_f (Repro_util.Histogram.percentile h 50.0);
              Table.cell_f (Repro_util.Histogram.percentile h 95.0);
              Table.cell_f (Repro_util.Histogram.percentile h 99.0);
              Table.cell_f (Repro_util.Histogram.mean h);
            ])
        models)
    specs;
  { tables = [ t ]; results = List.rev !all_results; extra = [] }

(* Extension: the YCSB core mixes across the durability models. *)
let ycsb ?(quick = false) ?jobs () =
  let dur = duration quick in
  let mixes = [ Ycsb.A; Ycsb.B; Ycsb.C; Ycsb.D; Ycsb.E; Ycsb.F ] in
  let series =
    [
      ("ADR_R", Config.optane_adr, Ptm.Redo);
      ("ADR_U", Config.optane_adr, Ptm.Undo);
      ("eADR_R", Config.optane_eadr, Ptm.Redo);
      ("PDRAM_R", Config.pdram, Ptm.Redo);
    ]
  in
  let t =
    Table.create ~title:"Extension — YCSB mixes, 8 threads (M tx/s)"
      ~header:("series" :: List.map (fun m -> "ycsb-" ^ Ycsb.mix_name m) mixes)
  in
  let cells =
    List.concat_map
      (fun (_, model, algorithm) ->
        List.map
          (fun mix () ->
            Driver.run ~duration_ns:dur ~model ~algorithm ~threads:8 (Ycsb.spec mix))
          mixes)
      series
  in
  let next = dispatch ?jobs cells in
  let all_results = ref [] in
  List.iter
    (fun (label, _, _) ->
      let cells =
        List.map
          (fun _mix ->
            let r = next () in
            all_results := r :: !all_results;
            Table.cell_f (r.Driver.txs_per_sec /. 1e6))
          mixes
      in
      Table.add_row t (label :: cells))
    series;
  { tables = [ t ]; results = List.rev !all_results; extra = [] }

(* Tentpole extension: what software flush coalescing buys.  The bank
   workload's 2-write transfers under ADR pay the full per-entry
   flush/fence discipline when naive; coalesced commits batch the log
   sweep and dedup data lines behind single fences.  Under eADR no
   flushes are issued at all, so the two modes coincide — the hardware
   already did the optimisation. *)
let scaling ?(quick = false) ?jobs () =
  let dur = duration quick in
  let axis = if quick then [ 1; 2; 4 ] else threads_axis in
  let passive = { Telemetry.default_config with Telemetry.sample_interval_ns = 0 } in
  let series =
    [
      ("ADR_coalesced", Config.optane_adr, true);
      ("ADR_naive", Config.optane_adr, false);
      ("eADR_coalesced", Config.optane_eadr, true);
      ("eADR_naive", Config.optane_eadr, false);
    ]
  in
  let tput =
    Table.create ~title:"Scaling — bank, redo: coalesced vs naive (M tx/s by thread count)"
      ~header:("series" :: List.map string_of_int axis)
  in
  let economy =
    Table.create ~title:"Scaling — flush/fence economy per commit (bank, redo)"
      ~header:
        [ "series"; "threads"; "fences/commit"; "clwbs/commit"; "fences saved"; "clwbs saved" ]
  in
  let cells =
    List.concat_map
      (fun (_, model, coalesce) ->
        List.map
          (fun threads () ->
            Driver.run ~duration_ns:dur ~coalesce ~telemetry:passive ~model ~algorithm:Ptm.Redo
              ~threads Bank.spec)
          axis)
      series
  in
  let next = dispatch ?jobs cells in
  let all_results = ref [] in
  List.iter
    (fun (label, _, _) ->
      let cells =
        List.map
          (fun threads ->
            let r = next () in
            all_results := r :: !all_results;
            (match r.Driver.telemetry with
            | None -> ()
            | Some cap ->
              let p = Telemetry.profile cap in
              let sum f =
                List.fold_left (fun acc tid -> acc + f ~tid) 0 (Pstm.Profile.tids p)
              in
              let over_phases f =
                sum (fun ~tid ->
                    List.fold_left (fun acc ph -> acc + f ~tid ph) 0 Pstm.Profile.all_phases)
              in
              let commits = max 1 (sum (Pstm.Profile.commits p)) in
              let per x = Table.cell_f (float_of_int x /. float_of_int commits) in
              Table.add_row economy
                [
                  label;
                  string_of_int threads;
                  per (over_phases (fun ~tid ph -> Pstm.Profile.phase_fences p ~tid ph));
                  per (over_phases (fun ~tid ph -> Pstm.Profile.phase_flushes p ~tid ph));
                  per (sum (Pstm.Profile.fences_saved p));
                  per (sum (Pstm.Profile.flushes_saved p));
                ]);
            Table.cell_f (r.Driver.txs_per_sec /. 1e6))
          axis
      in
      Table.add_row tput (label :: cells))
    series;
  { tables = [ tput; economy ]; results = List.rev !all_results; extra = [] }

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
let algorithms ?(quick = false) ?jobs () =
  let dur = duration quick in
  let threads = if quick then 2 else 4 in
  let passive = { Telemetry.default_config with Telemetry.sample_interval_ns = 0 } in
  let algs = [ Ptm.Redo; Ptm.Undo; Ptm.Mod ] in
  let specs = [ Mod_bench.btree; Mod_bench.hash ] in
  let tput =
    Table.create
      ~title:
        (Printf.sprintf "Algorithms — mixed btree/hash throughput, %d threads (M tx/s)" threads)
      ~header:("workload/algorithm" :: List.map fst domain_columns)
  in
  let economy =
    Table.create ~title:"Algorithms — ordering economy per commit (profiler counters)"
      ~header:
        [
          "workload"; "algorithm"; "model"; "fences/commit"; "clwbs/commit"; "fences saved";
          "clwbs saved";
        ]
  in
  let cells =
    List.concat_map
      (fun spec ->
        List.concat_map
          (fun algorithm ->
            List.map
              (fun (_, model) () ->
                Driver.run ~duration_ns:dur ~telemetry:passive ~model ~algorithm ~threads spec)
              domain_columns)
          algs)
      specs
  in
  let next = dispatch ?jobs cells in
  let all_results = ref [] in
  List.iter
    (fun spec ->
      List.iter
        (fun algorithm ->
          let alg_name = Ptm.algorithm_name algorithm in
          let row =
            List.map
              (fun (model_name, _) ->
                let r = next () in
                all_results := r :: !all_results;
                (match r.Driver.telemetry with
                | None -> ()
                | Some cap ->
                  let p = Telemetry.profile cap in
                  let sum f =
                    List.fold_left (fun acc tid -> acc + f ~tid) 0 (Pstm.Profile.tids p)
                  in
                  let over_phases f =
                    sum (fun ~tid ->
                        List.fold_left (fun acc ph -> acc + f ~tid ph) 0 Pstm.Profile.all_phases)
                  in
                  let commits = max 1 (sum (Pstm.Profile.commits p)) in
                  let per x = Table.cell_f (float_of_int x /. float_of_int commits) in
                  Table.add_row economy
                    [
                      spec.Driver.name;
                      alg_name;
                      model_name;
                      per (over_phases (fun ~tid ph -> Pstm.Profile.phase_fences p ~tid ph));
                      per (over_phases (fun ~tid ph -> Pstm.Profile.phase_flushes p ~tid ph));
                      per (sum (Pstm.Profile.fences_saved p));
                      per (sum (Pstm.Profile.flushes_saved p));
                    ]);
                Table.cell_f (r.Driver.txs_per_sec /. 1e6))
              domain_columns
          in
          Table.add_row tput ((spec.Driver.name ^ "/" ^ alg_name) :: row))
        algs)
    specs;
  { tables = [ tput; economy ]; results = List.rev !all_results; extra = [] }

(* Extension: recovery cost.  Crash a run mid-flight and measure the
   real time Ptm.recover takes as the heap gets fuller.  Stays serial
   regardless of [jobs]: the metric is wall-clock, and concurrent cells
   contending for cores would distort it. *)
let recovery_time ?(quick = false) ?jobs:_ () =
  let t =
    Repro_util.Table.create ~title:"Extension — recovery time after a crash (redo, B+Tree)"
      ~header:[ "pre-crash inserts"; "live blocks"; "recovery (real ms)" ]
  in
  let sizes = if quick then [ 1_000; 4_000 ] else [ 1_000; 10_000; 50_000; 200_000 ] in
  List.iter
    (fun inserts ->
      let heap_words = max (1 lsl 20) (16 * inserts) in
      let cfg = Memsim.Config.make ~heap_words Config.optane_adr in
      let sim = Memsim.Sim.create cfg in
      let m = Memsim.Sim.machine sim in
      let ptm = Ptm.create m in
      let tree = Pstructs.Bptree.create ptm in
      Ptm.root_set ptm 0 (Pstructs.Bptree.descriptor tree);
      for i = 1 to inserts do
        Ptm.atomic ptm (fun tx -> ignore (Pstructs.Bptree.insert tx tree ~key:i ~value:i))
      done;
      Memsim.Sim.persist_all sim;
      (* A short burst of work, then the plug is pulled. *)
      ignore
        (Memsim.Sim.spawn sim (fun () ->
             for i = 1 to 10_000 do
               Ptm.atomic ptm (fun tx ->
                   ignore (Pstructs.Bptree.insert tx tree ~key:(inserts + i) ~value:i))
             done));
      Memsim.Sim.run ~crash_at:100_000 sim;
      let sim' = Memsim.Sim.reboot sim in
      let t0 = Unix.gettimeofday () in
      let ptm' = Ptm.recover (Memsim.Sim.machine sim') in
      let elapsed_ms = 1e3 *. (Unix.gettimeofday () -. t0) in
      let live = List.length (Pmem.Alloc.live_blocks (Ptm.allocator ptm')) in
      Repro_util.Table.add_row t
        [ string_of_int inserts; string_of_int live; Repro_util.Table.cell_f elapsed_ms ])
    sizes;
  { tables = [ t ]; results = []; extra = [] }

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

let fams_run ?(quick = false) ?jobs () =
  let dur = duration quick in
  let series =
    [
      ("ptm-redo", None);
      (Fams_bench.series_name Fams.Line, Some Fams.Line);
      (Fams_bench.series_name Fams.Page, Some Fams.Page);
    ]
  in
  (* Each FAMS shape next to its PTM twin. *)
  let pairs =
    [
      (Fams_bench.bank, Bank.spec);
      (Fams_bench.kv, Mod_bench.hash);
      (Fams_bench.btree, Btree_bench.insert_only);
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
  let cells =
    List.concat_map
      (fun (fspec, ptm_spec) ->
        List.concat_map
          (fun (_, g) ->
            List.map
              (fun (_, model) () ->
                match g with
                | None ->
                  ( Driver.run ~duration_ns:dur ~model ~algorithm:Ptm.Redo ~threads:1 ptm_spec,
                    None )
                | Some granularity ->
                  let r = Fams_bench.run ~duration_ns:dur ~model ~granularity fspec in
                  (r.Fams_bench.driver, Some r.Fams_bench.fams))
              domain_columns)
          series)
      pairs
  in
  let next = dispatch ?jobs cells in
  let all_results = ref [] in
  let fams_cells = ref [] in
  List.iter
    (fun ((fspec : Fams_bench.spec), _) ->
      List.iter
        (fun (series_name, _) ->
          let row =
            List.map
              (fun (model_name, _) ->
                let r, st = next () in
                all_results := r :: !all_results;
                (match st with
                | None -> ()
                | Some st ->
                  let syncs = max 1 st.Fams.Stats.syncs in
                  let per x = float_of_int x /. float_of_int syncs in
                  let cell =
                    {
                      fc_workload = fspec.Fams_bench.name;
                      fc_model = model_name;
                      fc_series = series_name;
                      fc_tx_per_sec = r.Driver.txs_per_sec;
                      fc_write_amp = Fams.Stats.write_amp st;
                      fc_fences_per_sync = per st.Fams.Stats.fences;
                      fc_flushes_per_sync = per st.Fams.Stats.flushes;
                      fc_bytes_journaled = st.Fams.Stats.bytes_journaled;
                      fc_bytes_dirtied = st.Fams.Stats.bytes_dirtied;
                      fc_syncs = st.Fams.Stats.syncs;
                    }
                  in
                  fams_cells := cell :: !fams_cells;
                  Table.add_row economy
                    [
                      cell.fc_workload;
                      cell.fc_series;
                      cell.fc_model;
                      Table.cell_f cell.fc_write_amp;
                      Table.cell_f cell.fc_fences_per_sync;
                      Table.cell_f cell.fc_flushes_per_sync;
                      Table.cell_f (float_of_int cell.fc_bytes_journaled /. 1024.);
                      Table.cell_f (float_of_int cell.fc_bytes_dirtied /. 1024.);
                    ]);
                Table.cell_f (r.Driver.txs_per_sec /. 1e6))
              domain_columns
          in
          Table.add_row tput ((fspec.Fams_bench.name ^ "/" ^ series_name) :: row))
        series)
    pairs;
  let cells = List.rev !fams_cells in
  let outcome =
    {
      tables = [ tput; economy ];
      results = List.rev !all_results;
      extra = [ ("fams_cells", Bench_json.List (List.map fams_cell_json cells)) ];
    }
  in
  (outcome, cells)

let fams ?quick ?jobs () = fst (fams_run ?quick ?jobs ())

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

let kvserve ?(quick = false) ?jobs () =
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
      let wall = sum (fun rc -> rc.Service.r_wall_ns) in
      Table.add_row recovery
        [
          label;
          Table.cell_f (float_of_int modeled /. 1e3);
          string_of_int (sum (fun rc -> rc.Service.r_words_scanned));
          string_of_int (sum (fun rc -> rc.Service.r_entries_replayed));
          string_of_int (sum (fun rc -> rc.Service.r_entries_rolled_back));
          string_of_int (sum (fun rc -> rc.Service.r_durable_marker));
          string_of_int (sum (fun rc -> rc.Service.r_replayed_ops));
        ];
      recovery_json :=
        Bench_json.Obj
          [
            ("domain", Bench_json.String label);
            ("modeled_recovery_ns", Bench_json.Int modeled);
            ("recovery_wall_ns", Bench_json.Int wall);
            ("words_scanned", Bench_json.Int (sum (fun rc -> rc.Service.r_words_scanned)));
            ("entries_replayed", Bench_json.Int (sum (fun rc -> rc.Service.r_entries_replayed)));
            ("entries_rolled_back", Bench_json.Int (sum (fun rc -> rc.Service.r_entries_rolled_back)));
            ("durable_batches", Bench_json.Int (sum (fun rc -> rc.Service.r_durable_marker)));
            ("replayed_ops", Bench_json.Int (sum (fun rc -> rc.Service.r_replayed_ops)));
          ]
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

let trace ?(quick = false) ?jobs () =
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
let telemetry ?(quick = false) ?jobs () =
  let duration_ns = if quick then 200_000 else 1_000_000 in
  let configs =
    [
      (Config.optane_adr, Ptm.Redo);
      (Config.optane_adr, Ptm.Undo);
      (Config.optane_eadr, Ptm.Redo);
      (Config.optane_eadr, Ptm.Undo);
    ]
  in
  let results =
    Pool.run ?jobs
      (List.map
         (fun (model, algorithm) () ->
           Driver.run ~duration_ns ~telemetry:Telemetry.default_config ~model ~algorithm
             ~threads:4 Bank.spec)
         configs)
  in
  let saved =
    Table.create ~title:"telemetry — coalescing savings vs the naive per-entry path"
      ~header:[ "model"; "algorithm"; "fences saved"; "clwbs saved" ]
  in
  let phase_table (r : Driver.result) =
    let p =
      match r.Driver.telemetry with
      | Some cap -> Telemetry.profile cap
      | None -> failwith "telemetry capture missing"
    in
    let tids = Pstm.Profile.tids p in
    let sum f = List.fold_left (fun acc tid -> acc + f ~tid) 0 tids in
    let total_txn_ns = sum (Pstm.Profile.txn_ns p) in
    let table =
      Table.create
        ~title:
          (Printf.sprintf "phase profile: bank on %s (%s, %d commits)" r.Driver.model
             r.Driver.algorithm r.Driver.commits)
        ~header:[ "phase"; "count"; "total ns"; "share %"; "fences"; "flushes" ]
    in
    List.iter
      (fun phase ->
        let count = sum (fun ~tid -> Pstm.Profile.phase_count p ~tid phase) in
        if count > 0 then
          let ns = sum (fun ~tid -> Pstm.Profile.phase_ns p ~tid phase) in
          Table.add_row table
            [
              Pstm.Profile.phase_name phase;
              string_of_int count;
              string_of_int ns;
              Table.cell_f (100.0 *. float_of_int ns /. float_of_int (max 1 total_txn_ns));
              string_of_int (sum (fun ~tid -> Pstm.Profile.phase_fences p ~tid phase));
              string_of_int (sum (fun ~tid -> Pstm.Profile.phase_flushes p ~tid phase));
            ])
      Pstm.Profile.all_phases;
    Table.add_row saved
      [
        r.Driver.model;
        r.Driver.algorithm;
        string_of_int (sum (Pstm.Profile.fences_saved p));
        string_of_int (sum (Pstm.Profile.flushes_saved p));
      ];
    table
  in
  let phase_tables = List.map phase_table results in
  { tables = phase_tables @ [ saved ]; results; extra = [] }

(* Host cost of the simulator itself: one Fig 3 btree-insert panel
   run in the calling domain, with the GC's minor and major words
   per simulated machine event in [extra].  BENCH_speedup.json tracks
   these two counters across commits; on a shared host they are stable
   where wall clock is not.  Always serial so that every allocated word
   is counted; [jobs] is accepted and ignored.  [switches_per_event]
   counts the scheduler's context switches (waits that did not advance
   the clock inline) per event. *)
let speedup ?(quick = false) ?jobs:_ () =
  let g0 = Gc.quick_stat () in
  let outcome = fig3_panel ~quick ~jobs:1 Btree_bench.insert_only in
  let g1 = Gc.quick_stat () in
  let events = List.fold_left (fun acc r -> acc + Bench_json.events r) 0 outcome.results in
  let per_event words = Bench_json.Float (words /. float_of_int (max 1 events)) in
  let switches =
    List.fold_left (fun acc r -> acc + r.Driver.sim.Memsim.Sim.Stats.context_switches) 0
      outcome.results
  in
  {
    outcome with
    extra =
      [
        ("minor_words_per_event", per_event (g1.Gc.minor_words -. g0.Gc.minor_words));
        ("major_words_per_event", per_event (g1.Gc.major_words -. g0.Gc.major_words));
        ("switches_per_event", per_event (float_of_int switches));
      ];
  }

let all =
  [
    ("fig3", fig3);
    ("fig4", fig4);
    ("table1", table1);
    ("table2", table2);
    ("table3", table3);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("logsize", log_footprint);
    ("flush-timing", flush_timing_ablation);
    ("orec-size", orec_ablation);
    ("htm", htm);
    ("scaling", scaling);
    ("ycsb", ycsb);
    ("latency", latency);
    ("dimm-interleave", dimm_interleave);
    ("memory-mode", memory_mode);
    ("reserve-energy", reserve_energy);
    ("algorithms", algorithms);
    ("fams", fams);
    ("recovery-time", recovery_time);
    ("kvserve", kvserve);
    ("trace", trace);
    ("telemetry", telemetry);
    ("speedup", speedup);
  ]
