(** The sharded persistent KV service: codec → router → batch → commit.

    The service owns [shards] independent PTM instances, each on its
    own simulated machine ({!Memsim.Sim}), region and {!Store} — so a
    shard's commit-time flushes and fences never interfere with another
    shard's, and cross-shard batches overlap in (virtual) time.  A run
    has four stages:

    + {b Frontend} (untimed, as a network front): every client chunk
      is fed to that connection's incremental {!Protocol} parser.  Each
      parsed item becomes one row of a flat request table (connection,
      arrival instant, opcode, trace id, first sub-operation and part
      count, [set] flags / [incr] delta, payload or rendered protocol
      error); its keys become rows of a sub-operation column.  Each
      sub-operation is then routed by {!Router.shard_of_key} into its
      shard's exact-size columns (request row, sub index, per-shard
      write sequence number), in arrival order.  A request is stored
      once, from parse to reply.
    + {b Shards} (timed, one simulated executor per shard, fanned
      across domains by {!Parallel.Pool}): each executor walks its
      columns in arrival order, batching {e adjacent writes} into one
      transaction — one coalesced commit, one durable fence for the
      whole batch — while reads run as individual read-only
      transactions, at most 8 writes per batch.  Admission is
      debt-driven: when the shard's instantaneous persistence debt
      ({!Memsim.Sim.Debt}, WPQ plus armed-log lines) reaches 24 lines,
      the batch cap drops to 1, giving the WPQ time to drain before
      more log traffic is admitted.  Every
      write batch also commits the shard's batch marker
      ({!Store.set_batch_marker}), making the durable prefix of the
      write stream explicit.
    + {b Crash + restart} (when [crash_at] is given): every shard
      crashes at the same virtual instant; restart reattaches each
      region ({!Pstm.Ptm.recover}), reads the recovered batch marker,
      reconstructs replies for writes that committed durably but whose
      responses were lost, and re-runs everything after the durable
      prefix.  Recovery's own cost is {e modeled} from the
      {!Pstm.Ptm.Recovery_report} counts and the machine's configured
      latencies (log-scan loads at the log medium's latency — DRAM
      under PDRAM-Lite — plus write-back per replayed entry), because
      the recovery pass itself runs on untimed raw operations; a
      modeled 50 µs restart gap (process start, reattach) follows it.
    + {b Assembly} (after every shard has finished): each executor has
      written, for each of its own sub-operations, the completion
      instant, an outcome code and, for a [get] hit, the flags and
      payload into slots indexed by the sub-operation.  Assembly
      records each request's latency once, at its last part, and
      writes the replies with {!Protocol}'s reply writer straight
      into exact-size per-connection buffers, in request order.

    Everything is deterministic: equal (config, fleet) pairs produce
    byte-identical replies and metrics for any [jobs] value. *)

type config = {
  shards : int;
  model : Memsim.Config.model;
  heap_words_per_shard : int;
  buckets_per_shard : int;
  log_words_per_thread : int;
  prepopulate_items : int;
      (** item ranks preloaded untimed before the clock starts *)
  value_bytes : int;  (** payload size of preloaded values *)
  trace : bool;
      (** record request spans ({!Telemetry.Trace}) end to end: trace
          context per parsed request, queue/throttle/batch wait and
          commit/read spans per shard with PTM phase slices nested
          under them, and recovery/restart downtime spans after a
          crash.  Observation-only: enabling it changes no simulated
          timing, replies or metrics *)
  seed : int;
}

val default_config : Memsim.Config.model -> config

type opcode = Op_get | Op_set | Op_delete | Op_incr

val opcode_name : opcode -> string

type recovery = {
  r_shard : int;
  r_logs_scanned : int;
  r_words_scanned : int;
  r_entries_replayed : int;
  r_entries_rolled_back : int;
  r_durable_marker : int;  (** last write batch that survived *)
  r_replayed_ops : int;  (** sub-operations re-run after the marker *)
  r_modeled_ns : int;  (** simulated recovery time (deterministic) *)
  r_wall_ns : int;
      (** host wall time of the recovery pass — nondeterministic;
          report it, never gate on it *)
}

type shard_stats = {
  s_shard : int;
  s_ops : int;  (** sub-operations executed by this shard *)
  s_commits : int;
  s_aborts : int;
  s_batches : int;  (** write batches committed *)
  s_max_batch : int;
  s_throttled : int;  (** batches clamped to 1 by the debt knob *)
  s_elapsed_ns : int;  (** this shard's final (global) virtual time *)
  s_ptm : Pstm.Ptm.Stats.t;
      (** full runtime counters (pre- and post-crash PTM combined) *)
  s_sim : (string * int) list;
      (** {!Memsim.Sim.Stats.fields} of this shard's machine (summed
          across the reboot when the run crashed) *)
}

type result = {
  model : string;
  requests : int;  (** parsed requests answered, protocol errors included *)
  kv_ops : int;  (** sub-operations executed against shards *)
  protocol_errors : int;
  get_hits : int;
  get_misses : int;
  elapsed_ns : int;  (** max over shards *)
  ops_per_sec : float;
  replies : string array;  (** per connection, replies in request order *)
  latency : (opcode * Repro_util.Histogram.t) list;
      (** arrival → completion, virtual ns, per opcode *)
  batch_occupancy : Repro_util.Histogram.t;  (** writes per commit *)
  shard_ops : int array;
  imbalance : float;  (** max shard load / mean shard load *)
  shards : shard_stats list;
  recoveries : recovery list;  (** one per shard when the run crashed *)
  crashed : bool;
  trace : Telemetry.Trace.t option;
      (** the service-global span store when [config.trace]: one
          ["request"] root per traced request with wait / execution /
          phase-slice children, assembled deterministically (equal for
          any [jobs]) *)
}

val run : ?jobs:int -> ?crash_at:int -> config -> Client.t -> result
(** Serve the fleet.  [jobs] fans shard executions across domains
    (byte-identical results for any value); [crash_at] pulls the plug
    on every shard at that virtual instant and exercises the full
    restart-recovery path. *)

val registry : config -> result -> Telemetry.Registry.t
(** The unified metrics registry over a finished run: service counters
    and latency histograms, per-shard PTM ([ptm_*]) and machine
    ([sim_*]) counters, and — after a crash — the recovery-report
    counters.  A pure projection of [result]: building it twice yields
    byte-identical exports.  Render with
    {!Telemetry.Registry.to_prometheus} / [stats_pairs] / [jsonl]; the
    in-band [stats] verb answers with exactly [stats_pairs]. *)

val metrics_jsonl : config -> result -> string
(** Deterministic service-metrics export in the telemetry JSONL style
    (schema header; per-opcode latency rows; batch/shard/recovery
    rows; the {!registry} rows).  Wall-clock recovery times are
    deliberately excluded. *)
