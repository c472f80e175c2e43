(** Recoverable persistent allocator (in the spirit of Makalu).

    Carves the region's data area into per-thread arenas taken from a
    persistent high-water mark; objects carry a one-word persistent
    header; size-class free lists are volatile and rebuilt after a
    crash by scanning block headers up to the high-water mark.

    Crash-atomicity with transactions: header writes and frees go
    through the caller-supplied transactional operations ({!tx_ops}),
    so an aborted or crashed transaction's allocations are rolled back
    with the rest of its write set, and a freed block only becomes
    reusable once the freeing transaction has committed (via the
    [on_commit] hook).  This mirrors how PMDK/Makalu integrate with
    persistent transactions.

    Arena refills are transaction-independent: the high-water mark is
    advanced, flushed and fenced {e before} the new arena is first
    used, so a crash can never hand out the same space twice. *)

type t

type tx_ops = {
  txr : int -> int;  (** transactional read of a heap word *)
  txw : int -> int -> unit;  (** transactional write *)
  on_commit : (unit -> unit) -> unit;  (** run after the tx durably commits *)
  on_abort : (unit -> unit) -> unit;  (** run if the tx aborts *)
}

val create : Region.t -> t
(** Allocator for a freshly created region. *)

val recover : Region.t -> t
(** Allocator for a re-attached region: scans block headers and
    rebuilds the volatile free lists.  Idempotent. *)

val max_object_words : int
(** Largest payload a single {!alloc} may request. *)

val alloc : t -> tx_ops -> words:int -> int
(** [alloc t ops ~words] returns the payload address of a block with at
    least [words] words, transactionally marked allocated.
    @raise Out_of_memory when the data area is exhausted. *)

val free : t -> tx_ops -> int -> unit
(** Transactionally mark the block owning this payload address free;
    it becomes reusable after commit.
    @raise Invalid_argument if the address is not a live payload. *)

val payload_words : t -> int -> int
(** Size of the block owning a payload address (untimed; for tests). *)

val live_blocks : t -> (int * int) list
(** [(payload_addr, words)] for every allocated block, by header scan
    (untimed; test oracle). *)
