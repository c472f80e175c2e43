(** Array-based binary min-heap with integer keys and polymorphic
    payloads: the easy-to-audit reference implementation that
    [test/test_util.ml] drives in lockstep with
    [Repro_util.Int_heap], the kvserve client's allocation-free merge
    queue, and that [test/test_memsim.ml]'s reference scheduler queues
    threads on.  Ties are broken by insertion order (FIFO), the
    property the scheduler's determinism rests on. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> key:int -> 'a -> unit
(** O(log n) insertion. *)

val pop : 'a t -> (int * 'a) option
(** Remove and return the (key, value) pair with the smallest key, FIFO
    among equal keys.  [None] when empty. *)

val peek_key : 'a t -> int option
(** Smallest key without removing it. *)

val clear : 'a t -> unit
