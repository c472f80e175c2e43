(** Experiment driver: runs a workload on a simulated machine under a
    chosen durability model, PTM algorithm and thread count, for a
    fixed span of virtual time, and reports the paper's metrics.

    Runs are deterministic: the same (spec, model, algorithm, threads,
    seed) always yields the same numbers. *)

type spec = {
  name : string;
  heap_words : int;
  setup : Pstm.Ptm.t -> unit;
      (** untimed population phase, run before the clock starts *)
  make_op : Pstm.Ptm.t -> tid:int -> rng:Repro_util.Rng.t -> (unit -> unit);
      (** per-thread operation factory; the thunk runs one transaction
          (plus any modeled inter-transaction work) per call *)
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
  telemetry : Telemetry.capture option;
      (** present iff the run was started with [?telemetry] *)
}

val default_seed : int

val run :
  ?duration_ns:int ->
  ?flush_timing:Pstm.Ptm.flush_timing ->
  ?coalesce:bool ->
  ?seed:int ->
  ?orec_bits:int ->
  ?monitor:int * (Memsim.Sim.t -> unit) ->
  ?telemetry:Telemetry.config ->
  ?lat:Memsim.Config.latency ->
  ?nvm_channels:int ->
  model:Memsim.Config.model ->
  algorithm:Pstm.Ptm.algorithm ->
  threads:int ->
  spec ->
  result
(** Default duration 3 ms of virtual time.  Media tracking is disabled
    (benchmarks never crash), halving memory.

    [?coalesce] (default [true]) selects the PTM's coalesced commit
    path; pass [false] for the naive per-entry flush/fence discipline
    (A/B runs; see {!Pstm.Ptm.create}).

    [?telemetry] attaches a {!Telemetry.capture} after setup (phase
    profiler, machine trace, and — when [sample_interval_ns > 0] — a
    sampling monitor thread spawned after the workers).  Telemetry
    observes clocks without advancing them: with sampling disabled the
    run's virtual timeline is bit-identical to an uninstrumented run. *)

val throughput_row : result -> string list
(** [workload; model; algorithm; threads; tx/s; ratio] cells for tables.
    Non-finite values render as ["-"]. *)

val run_meta : result -> seed:int -> duration_ns:int -> Telemetry.Export.run_meta
(** Export metadata describing this run, for {!Telemetry.dump}. *)
