(** Shared bandwidth server with bounded queueing.

    Models a memory channel: each request occupies the server for a
    fixed per-line service time, so aggregate throughput is bounded by
    1/service and queueing delay emerges under contention.  The bounded
    variant additionally models the Write Pending Queue: when
    [capacity] requests are in flight, the issuing thread stalls until
    a slot frees — the WPQ-saturation mechanism of the paper (§III-C). *)

type t

val create : service_ns:int -> capacity:int -> t
(** [capacity <= 0] means unbounded. *)

val acquire_sync : t -> now:int -> latency_ns:int -> int
(** Synchronous request (a load): occupies the server for its service
    time and returns the completion time the requester must wait for
    ([>= now + latency_ns]; larger under queueing). *)

val enqueue_fast : t -> now:int -> unit
(** Asynchronous request (a write-back entering the WPQ).  The outcome
    is read back through {!last_ready} — when the issuing thread may
    proceed, [> now] only when the bounded queue was full
    (backpressure) — and {!last_completion} — when the line has drained
    to media.  Valid until the next enqueue on this server; the
    simulator hot path consumes both immediately. *)

val last_ready : t -> int
val last_completion : t -> int

val reset : t -> unit

(** Counters for experiment reports. *)

val requests : t -> int
val stall_ns : t -> int
(** Total backpressure stall time imposed on issuing threads. *)

val inflight_at : t -> now:int -> int
(** Entries of a bounded server still draining at the given instant —
    what a power failure would have to finish on reserve power. *)
