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
    used, so a crash can never hand out the same space twice.

    This module owns the allocator's persistent format.  Region header
    word 5 holds the high-water mark; the data area from [data_start]
    up to it is a chain of 2048-word arenas:

    {v
    word              contents
    arena             header: 0xA4E4 lsl 20 lor kind (0 small, 1 large);
                      0 = claimed but never initialized (a crash leak)
    small arena + 1.. block chain: header, payload, header, ...,
                      ended by a 0 word or the arena's end
    large arena + 1   one block header; the chunk spans the block's
                      header words and payload rounded up to arenas
    block header      0xB10C lsl 24 lor allocated lsl 16 lor payload words
    v}

    {!walk} is the one reader of that chain; {!recover} and
    [Check] are its clients.  It rejects, as [Machine.Corrupt_image], a
    high-water mark outside the data area or off the arena grid, and
    reports as {!Corrupt}, in place of the block, a block that
    overflows its small arena (or has no payload) and a large block
    that spans past the high-water mark. *)

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
(** Allocator for a re-attached region: {!walk}s the block headers and
    rebuilds the volatile free lists.  Idempotent.  A {!Corrupt} block
    is never reused: like a leaked arena, it is lost.
    @raise Machine.Corrupt_image on a high-water mark {!walk} rejects. *)

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

val high_water : Region.t -> int
(** The persisted high-water mark (untimed).
    @raise Machine.Corrupt_image when it lies outside the data area or
    off the arena grid. *)

(** What {!walk} meets, in address order. *)
type event =
  | Block of { payload : int; words : int; allocated : bool }
  | Leak of string option
      (** an arena a crash left unusable: an unrecognized start or a
          headless large arena, with a note; [None] for a 0 start *)
  | Garbage of string  (** a small arena's chain ends at a nonzero non-header word *)
  | Corrupt of string  (** block metadata no crash leaves behind; [Check] reports it *)

val walk : Region.t -> (event -> unit) -> unit
(** Untimed walk of the persisted arena chain, bounded by the
    high-water mark and each arena's end.
    @raise Machine.Corrupt_image on a high-water mark outside the data
    area or off the arena grid. *)
