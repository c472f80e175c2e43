(** Span-based causal tracing on the simulator's virtual clock.

    A trace is a request's causal history: one root ("request") span
    per client request plus child spans for every stage it crossed —
    decode, shard queueing, batch formation, admission throttling, the
    PTM commit (with the {!Pstm.Profile} phase slices nested under it),
    reply, and crash recovery.  Span instants are virtual-clock values
    the caller already holds, so recording perturbs no simulated time;
    the whole layer is deterministic and digest-comparable.

    Stores compose: each service shard records into its own store with
    {!root_parent} standing in for "my request's root", and the service
    merges them into one global store with {!merge_into}, resolving
    roots.  Analysis (percentile-band blame, per-request accounting)
    and Perfetto export read the merged store. *)

type t

val create : unit -> t

val root_parent : int
(** Sentinel parent ([-1]): the span hangs off its trace's root span
    (resolved at {!merge_into} time), or is itself a root. *)

val span :
  t -> trace:int -> parent:int -> kind:string -> tid:int -> start_ns:int -> stop_ns:int -> int
(** Record one span; returns its id (usable as a [parent] for children
    recorded into the same store).  [trace] is the request's trace id
    ([-1] for service-level spans outside any request); [tid] is a
    store-local lane (shard id in per-shard stores, connection id for
    roots). *)

val length : t -> int

type span_view = {
  s_trace : int;
  s_parent : int;  (** span id within the same store, or {!root_parent} *)
  s_kind : string;
  s_tid : int;
  s_start_ns : int;
  s_stop_ns : int;
}

val get : t -> int -> span_view
val iter : (int -> span_view -> unit) -> t -> unit

val merge_into : src:t -> dst:t -> root_for:(int -> int) -> unit
(** Append [src]'s spans to [dst]: parents [>= 0] are offset into
    [dst]'s id space, {!root_parent} parents are resolved through
    [root_for trace] (return {!root_parent} to keep the span a root). *)

val digest : t -> string
(** FNV-1a hash over every span's content (kind by name, not interned
    id) — equal digests iff equal span sequences.  BENCH_trace.json
    records one per domain, and [@results] requires a fresh run to
    reproduce them exactly. *)

val latency_hist : t -> Repro_util.Histogram.t
(** Durations of all root spans (request end-to-end latencies). *)

val accounting : t -> (int * int * int) list
(** Per request, sorted by trace id: [(trace, latency_ns,
    attributed_ns)] where [attributed_ns] sums the exclusive time
    (duration minus direct children, floored at 0) of every span on
    that trace.  For a request whose spans partition its window —
    every single-key request — the two are equal; overlapping fan-out
    (multi-key gets) makes [attributed_ns >= latency_ns]. *)

(** {1 Critical-path blame} *)

type blame_row = {
  bkind : string;
  bspans : int;
  bexclusive_ns : int;
  bshare : float;  (** percent of the band's attributed time *)
}

type blame = {
  brequests : int;  (** requests inside the percentile band *)
  bband_lo_ns : int;  (** fastest selected request *)
  bband_hi_ns : int;  (** slowest selected request *)
  btotal_latency_ns : int;
  battributed_ns : int;
  bslack_ns : int;  (** attributed - latency (overlap of fanned-out spans) *)
  brows : blame_row list;  (** descending exclusive time; ties by kind *)
}

val blame : t -> lo_pct:float -> hi_pct:float -> blame
(** Blame table for requests whose latency rank falls in
    [\[lo_pct, hi_pct\]] — e.g. [~lo_pct:95.0 ~hi_pct:100.0] answers
    "where does p95+ tail time go".  Exclusive time per span kind,
    summed over the selected requests. *)

(** {1 Perfetto export} *)

val chrome_trace : t -> string
(** Perfetto-loadable Chrome trace_event JSON: one complete (["X"])
    event per span, on pid 1 with one track per trace (so whole-request
    spans nest their children cleanly) and a per-shard track for
    service-level spans. *)
