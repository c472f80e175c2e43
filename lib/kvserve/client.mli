(** Deterministic in-sim client fleet.

    Generates the byte streams a set of memcached clients would send:
    per-connection Zipf-skewed keys, a get/set/delete/incr mix, and
    open-loop arrivals (a connection's next request arrives on its own
    clock whether or not the service has kept up — so backlog and
    queueing delay are visible, unlike the closed-loop workload in
    [lib/workloads/memcached.ml]).

    Each request is written once, by {!Protocol}'s request writer, into
    one byte buffer reused for the whole fleet (a [set]'s payload by
    the payload writer behind {!value_of}), and copied out as one
    chunk, or as two split at a seeded byte boundary, so the service's
    incremental parser is exercised on realistic torn reads.
    Everything derives from the seed: equal seeds give byte-identical
    fleets. *)

type chunk = {
  arrival_ns : int;  (** virtual instant the bytes are on the wire *)
  conn : int;
  bytes : string;
}

type t = {
  chunks : chunk list;
      (** global arrival order (ties broken by connection id);
          per-connection subsequences are in-order *)
  conns : int;
  requests : int;  (** total requests rendered into [chunks] *)
  trace_ids : int array array;
      (** [trace_ids.(conn).(o)] is the trace id for the [o]-th request
          emitted on [conn] (in per-connection order).  [[||]] in
          hand-built fleets is fine: the service falls back to a
          synthesized id. *)
}

val key_of : int -> string
(** Canonical key for item rank [i] (["k%06d"]). *)

val counters : int
(** Size of the dedicated decimal-counter keyspace [incr] targets. *)

val counter_of : int -> string
(** Counter key [i], for [i < counters]. *)

val value_of : rank:int -> version:int -> value_bytes:int -> string
(** Deterministic payload: identifies (rank, version) and pads to
    [value_bytes] with letters that vary by position.  [rank] and
    [version] are non-negative.  The fleet's [set]s carry the same
    bytes, written by the same payload writer straight into the
    request buffer. *)

val generate :
  seed:int ->
  conns:int ->
  requests_per_conn:int ->
  items:int ->
  value_bytes:int ->
  set_ratio:float ->
  delete_ratio:float ->
  incr_ratio:float ->
  mean_gap_ns:int ->
  theta:float ->
  unit ->
  t
(** Remaining probability mass is [get]s.  [mean_gap_ns] is each
    connection's mean inter-arrival time (uniform on
    [\[1, 2*mean_gap_ns\]]); [theta] is the Zipf skew over item
    ranks.
    @raise Invalid_argument naming the parameter if [conns] or
    [requests_per_conn] is negative, or [items] or [mean_gap_ns] is
    not positive. *)
