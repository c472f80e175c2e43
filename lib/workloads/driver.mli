(** Experiment driver: runs a workload on a simulated machine under a
    chosen durability model, PTM algorithm and thread count, for a
    fixed span of virtual time, and reports the paper's metrics.

    One run is one {!cell}, a plain value: an experiment is a list of
    cells, and anything can list, group or re-run a cell without
    running the rest.  Runs are deterministic: the same cell always
    yields the same numbers. *)

type spec = {
  name : string;  (** identifies the population: one name, one [heap_words] and [setup] *)
  heap_words : int;
  setup : Pstm.Ptm.t -> unit;
      (** untimed population phase, run before the clock starts *)
  make_op : Pstm.Ptm.t -> tid:int -> rng:Repro_util.Rng.t -> (unit -> unit);
      (** per-thread operation factory; the thunk runs one transaction
          (plus any modeled inter-transaction work) per call *)
}

type cell = {
  spec : spec;
  config : Memsim.Config.t;  (** [spec.heap_words], the model, media tracking off *)
  algorithm : Pstm.Ptm.algorithm;
  threads : int;
  duration_ns : int;  (** the measured window, in virtual ns *)
  seed : int;  (** roots every workload and backoff stream *)
  flush_timing : Pstm.Ptm.flush_timing;
  coalesce : bool;  (** [false]: the naive per-entry flush/fence path ({!Pstm.Ptm.create}) *)
  orec_bits : int;
  telemetry : Telemetry.config option;
      (** attaches a {!Telemetry.capture} after setup: phase profiler,
          machine trace and, when [sample_interval_ns > 0], a sampling
          monitor thread spawned after the workers.  Without sampling
          the virtual timeline is bit-identical to an uninstrumented
          run. *)
}

type result = {
  workload : string;
  model : string;
  algorithm : string;
  threads : int;
  elapsed_ns : int;  (** virtual time actually covered *)
  commits : int;
  aborts : int;
  txs_per_sec : float;
  commits_per_abort : float;  (** [infinity] when no aborts *)
  max_log_lines : int;  (** §IV-B redo-log footprint, in cache lines *)
  latency : Repro_util.Histogram.t;
      (** per-operation (transaction + modeled inter-transaction work)
          latency distribution, in virtual nanoseconds *)
  sim : Memsim.Sim.Stats.t;
  telemetry : Telemetry.capture option;  (** present iff the cell's [telemetry] is *)
}

val default_seed : int

val cell :
  duration_ns:int ->
  model:Memsim.Config.model ->
  algorithm:Pstm.Ptm.algorithm ->
  threads:int ->
  spec ->
  cell
(** The cell with {!default_seed}, at-commit flushing, coalescing, 2^20
    orecs and no telemetry; set any other field with [{ c with … }]. *)

type setup_key
(** What decides a cell's post-setup state, compared with [=]: spec
    name, config, algorithm, seed, flush timing, coalescing, orec bits
    and the PTM's [max_threads], which is [max (threads + 1) 32] — so
    thread counts up to 31 share a key and 32 does not. *)

val setup_key : cell -> setup_key

val populate : cell -> (Memsim.Sim.t -> Pstm.Ptm.t -> 'a) -> 'a
(** [populate c f] builds [c]'s machine and PTM, runs the spec's
    untimed [setup], and hands both to [f], releasing the machine when
    [f] returns or raises.  Cells with equal {!setup_key}s reach the
    same heap and counters here. *)

val measure : cell -> Memsim.Sim.t -> Pstm.Ptm.t -> result
(** The measured phase on a {!populate}d machine and PTM: timing and
    statistics reset, then [threads] workers run the spec's operations
    until [duration_ns] of virtual time. *)

val run_cell : cell -> result
(** {!populate}, then {!measure}. *)

val run :
  duration_ns:int ->
  seed:int ->
  model:Memsim.Config.model ->
  algorithm:Pstm.Ptm.algorithm ->
  threads:int ->
  spec ->
  result
(** {!run_cell} of {!cell} with [seed]; kept only for the [bench/perf]
    benchmark, which calls it.  Everything else builds a cell. *)

val run_meta : cell -> result -> Telemetry.Export.run_meta
(** Export metadata naming [c]'s run, for {!Telemetry.dump}: its
    workload, model, algorithm and threads, with [c]'s seed and
    configured window, so the header names a cell that can be re-run. *)
