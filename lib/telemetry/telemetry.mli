(** Deterministic observability for PTM runs.

    A {!capture} bundles the three telemetry streams over one
    (simulator, PTM runtime) pair:
    - a {!Pstm.Profile} attributing every in-transaction virtual
      nanosecond to a named phase, per thread;
    - a {!Series} of machine samples (WPQ occupancy, persistence debt,
      commit/abort rates) taken at a fixed virtual-time cadence;
    - optionally the machine's {!Memsim.Trace} event ring.

    Telemetry is off by default and purely observational when on: it
    reads clocks and counters but never advances virtual time, so an
    instrumented run's timing is bit-identical to an uninstrumented
    one, and repeated instrumented runs yield byte-identical exports. *)

module Series = Series
module Export = Export

module Trace = Trace
(** Span-based request tracing (see {!Trace}). *)

module Registry = Registry
(** Unified metrics registry (see {!Registry}). *)

type config = {
  sample_interval_ns : int;
      (** virtual-time cadence for {!sample}; [0] disables the series
          (the caller spawns no monitor thread) *)
  span_capacity : int;  (** span ring size (oldest spans overwritten) *)
  series_capacity : int;
  machine_trace_capacity : int;  (** [0] disables the machine event trace *)
}

val default_config : config
(** 50 µs sampling, 65536 spans, 4096 samples, 8192 machine events. *)

type capture

val attach : ?config:config -> Memsim.Sim.t -> Pstm.Ptm.t -> capture
(** Install a profiler on [ptm] (and, per [config], a machine trace on
    [sim]).  Call after setup, before spawning workers. *)

val sample : capture -> unit
(** Record one series sample; call from a monitor thread. *)

val config : capture -> config
val profile : capture -> Pstm.Profile.t
val series : capture -> Series.t

(** {1 Export} *)

val profile_jsonl : Export.run_meta -> capture -> string
(** Phase-profile JSONL (see {!Export.profile_jsonl}), with per-thread
    machine-attributed [machine_fence_wait_ns] / [machine_wpq_stall_ns]
    appended to the thread summaries. *)

val series_csv : capture -> string

val phase_table : title:string -> capture -> Repro_util.Table.t
(** The run's phase profile as a table: one row per phase with slices
    (count, total ns, share of the run's transaction time, fences,
    flushes), summed over threads.  Per-thread rows and slice-latency
    percentiles are in {!profile_jsonl}. *)

val chrome_trace : Export.run_meta -> capture -> string
(** Perfetto-loadable trace: phase spans + machine events. *)

val files : Export.run_meta -> capture -> (string * string) list
(** [(filename, content)] for the three standard artifacts:
    [profile.jsonl], [series.csv], [trace.json]. *)

val dump : dir:string -> Export.run_meta -> capture -> string list
(** Write {!files} under [dir] (created if missing); returns the paths
    written, in a fixed order. *)
