(** Structured telemetry exporters.

    All emitters are bit-deterministic for a deterministic run: fixed
    iteration orders, integer counters, and fixed-precision microsecond
    stamps.  [nan] can never appear in the output — statistics of empty
    distributions are omitted rather than rendered. *)

type run_meta = {
  workload : string;
  model : string;
  algorithm : string;
  threads : int;
  seed : int;
  duration_ns : int;
      (** the configured window in virtual ns (a crash dump's crash
          instant), not the time the run covered, so the header names
          a run that can be repeated *)
}

val schema_version : string
(** Embedded in the JSONL header line as ["schema"]. *)

val profile_jsonl : ?extra_thread_fields:(int -> (string * int) list) -> run_meta -> Pstm.Profile.t -> string
(** One JSON object per line:
    - a ["run"] header (workload/model/algorithm/threads/seed);
    - per-thread ["phase"] rows (count, ns, fences, flushes, and
      mean/p50/p95/p99/max slice ns) for every phase with samples;
    - run-level ["run-phase"] rows merging the per-thread histograms;
    - per-thread ["thread"] summaries with [txn_ns] and
      [phase_ns_total] (equal by the profiler's accounting invariant),
      commits/aborts, transaction-latency stats, plus any
      [extra_thread_fields] (e.g. machine-attributed stall counters). *)

val chrome_trace : ?machine_trace:Memsim.Trace.t -> run_meta -> Pstm.Profile.t -> string
(** Chrome trace_event JSON (load in Perfetto or about://tracing):
    phase spans and transaction envelopes as complete (["X"]) events on
    per-thread tracks, plus instant events for retained machine trace
    events (loads/stores/clwbs/fences) when [machine_trace] is given.
    Request spans have their own writer, {!Trace.chrome_trace}. *)
