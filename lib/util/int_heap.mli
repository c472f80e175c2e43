(** Array-based binary min-heap specialised to integer keys and integer
    payloads — the merge queue of [Kvserve.Client], which interleaves
    the request streams of [N] connections by arrival time.  [N] is
    user-set ([ptm_serve --conns]), so the heap's O(log N) per request
    matters there; the scheduler keeps its own sorted ready queue
    ([lib/memsim/sched.ml]) because it queues a few threads and mostly
    requeues near the front.

    Entries live in one flat [int array], so pushing and popping
    allocates nothing (no entry record, no option, no tuple).
    Tie-break order is FIFO among equal keys, which keeps the merge
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
    [-1] when empty. *)
