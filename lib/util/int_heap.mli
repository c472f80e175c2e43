(** Array-based binary min-heap specialised to integer keys and integer
    payloads — the event queue of the discrete-event scheduler.

    Entries live in one flat [int array], so pushing and popping an event
    allocates nothing (no entry record, no option, no tuple).  Tie-break
    order is FIFO among equal keys, which keeps simulations
    deterministic.  A polymorphic reference heap in the test suite
    ([test/min_heap.ml]) is this module's differential oracle:
    [test/test_util.ml] drives both heaps with identical operation
    sequences and requires identical pop orders. *)

type t

val create : unit -> t

val length : t -> int

val is_empty : t -> bool

val push : t -> key:int -> int -> unit
(** O(log n) insertion; allocation-free except when the backing array
    grows.  The payload must be non-negative. *)

val pop : t -> int
(** Remove the payload with the smallest key (FIFO among equal keys);
    [-1] when empty.  The popped entry's key is available as
    {!last_key} until the next [pop]. *)

val push_pop : t -> key:int -> int -> int
(** [push] followed by [pop], fused: one sift-down at most, and none
    when the new entry is itself the minimum (its key strictly below
    every queued key).  Never grows the array.  Sets {!last_key} like
    [pop]. *)

val last_key : t -> int
(** Key of the most recently popped entry.  Unspecified before the
    first successful [pop]. *)

val min_key : t -> int
(** Smallest key without removing it; [max_int] when empty — callers
    compare against it directly, no option allocated. *)

val clear : t -> unit
