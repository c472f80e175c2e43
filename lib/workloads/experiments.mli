(** One entry point per table/figure of the paper's evaluation.

    Each function sweeps the corresponding workloads, durability models
    and thread counts, and returns printable tables whose rows mirror
    what the paper reports.  [quick] shrinks the virtual measurement
    window (for smoke runs); results remain deterministic either way.

    Most experiments are a list of {!Driver.cell}s in row-major order
    plus a renderer from their results to tables; {!cells} lists them
    without running anything.  [jobs] bounds the worker pool that runs
    all of an experiment's cells, one pool task each, across OCaml
    domains (default: the available cores, {!Parallel.Pool.default_jobs}).
    Results come back in cell order, so the printed tables, CSVs and
    [results] are byte-identical for every [jobs] value — parallelism
    buys wall-clock time only, never different numbers.

    Every figure and table is reached through {!all}, keyed by its CLI
    name; only the entry points that gates and tools call directly are
    exported by name.  The experiment index lives in DESIGN.md; shape
    expectations and measured outcomes in EXPERIMENTS.md. *)

type outcome = {
  tables : Repro_util.Table.t list;
  results : Driver.result list;  (** every underlying data point *)
  extra : (string * Bench_json.json) list;
      (** experiment-specific JSON spliced into the BENCH_*.json root *)
}

val threads_axis : int list
(** The paper's thread sweep: 1, 2, 4, 8, 16, 32. *)

val fig3_panel : ?quick:bool -> ?jobs:int -> Driver.spec -> outcome
(** One panel of Fig 3 (all eight series, the full thread axis) for a
    single workload — the unit the [@parallel] byte-identity gate and
    {!speedup} run. *)

val reserve_peak : Driver.result -> Memsim.Sim.Debt.t * float
(** A [reserve-energy] cell's peak: the first telemetry series sample
    of strictly greatest {!Memsim.Sim.Debt.reserve_energy_nj} under the
    run's model, with that energy in nJ (zero debt and [0.0] when no
    sample needs any).  The run needs a sampling telemetry capture that
    dropped no sample. *)

(** One FAMS grid point's exported metrics (also serialised under the
    ["fams_cells"] key of [BENCH_fams.json]). *)
type fams_cell = {
  fc_workload : string;
  fc_model : string;
  fc_series : string;  (** ["fams-line"] / ["fams-page"] *)
  fc_tx_per_sec : float;
  fc_write_amp : float;  (** bytes journaled / bytes logically dirtied *)
  fc_fences_per_sync : float;
  fc_flushes_per_sync : float;
  fc_bytes_journaled : int;
  fc_bytes_dirtied : int;
  fc_syncs : int;
}

val fams_run : ?quick:bool -> ?jobs:int -> unit -> outcome * fams_cell list
(** The FAMS grid: three workload shapes (scattered bank, hash puts,
    clustered appends) x {ptm-redo, fams-line, fams-page} x all five
    durability domains, single-writer.  Returns the outcome plus the
    typed per-cell metrics for the FAMS rows (the [@fams] gate asserts
    write-amplification direction on these). *)

val speedup : ?quick:bool -> ?jobs:int -> unit -> outcome
(** The {!fig3_panel} for B+Tree inserts, always serial in the calling
    domain; [extra] carries the GC's minor and major words per
    simulated machine event ([minor_words_per_event],
    [major_words_per_event]) for [BENCH_speedup.json].  [jobs] is
    accepted and ignored. *)

val all : (string * (?quick:bool -> ?jobs:int -> unit -> outcome)) list
(** Every experiment, keyed by its CLI name. *)

val cells : string -> quick:bool -> Driver.cell list
(** The Driver cells experiment [name] runs at that size, in the order
    of its [results], without running them.  kvserve and trace drive
    the service and list none; fams lists its ptm-redo rows only.
    @raise Not_found for a name not in {!all}. *)

val workloads : unit -> (string * Driver.spec) list
(** The named workloads of [ptm_bench run] and [sweep]. *)
