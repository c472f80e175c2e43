(** MOD B+Tree: a minimally-ordered-durable tree on purely-functional
    persistent nodes (Haria et al., arXiv 1908.11850).

    Same ordered-map API as {!Bptree}, different update discipline:
    nodes are immutable once reachable, every update path-copies the
    touched leaf-to-root spine into freshly allocated shadow nodes and
    swings the one-word descriptor.  Under {!Pstm.Ptm.algorithm} [Mod]
    each update therefore commits with exactly one ordering fence (the
    shadow sweep) and an unfenced 8-byte root swap — buffered durable
    linearizability: a crash can lose a WPQ-bounded committed suffix,
    never consistency.  The same code also runs under redo/undo
    logging for differential comparison.

    Replaced nodes are retired to a volatile epoch list and recycled
    once {!Pstm.Ptm.min_active_rv} proves no in-flight snapshot can
    reach them; a crash drops the list, leaking those blocks (benign —
    bounded by the retire window and invisible to [Pmem.Check]).

    Unlike {!Bptree} there is no next-leaf chain (it would make a
    sibling mutable on split); ordered iteration walks the tree. *)

type t

val create : Pstm.Ptm.t -> t
(** Allocate an empty tree (runs its own transaction); persist the
    {!descriptor} in a root slot to find it after recovery. *)

val attach : Pstm.Ptm.t -> int -> t
(** Re-attach to a tree by descriptor address (e.g. after recovery).
    The fresh handle starts with an empty retire list. *)

val descriptor : t -> int
(** The tree's one-word root pointer — the only word updates mutate in
    place, and the only word whose ownership record is ever taken. *)

val insert : Pstm.Ptm.tx -> t -> key:int -> value:int -> bool
(** [insert tx t ~key ~value] binds [key] (which must be positive).
    Returns [true] if the key was new, [false] if a binding was
    replaced. *)

val lookup : Pstm.Ptm.tx -> t -> int -> int option
val remove : Pstm.Ptm.tx -> t -> int -> bool

val fold_range : Pstm.Ptm.tx -> t -> lo:int -> hi:int -> ('a -> int -> int -> 'a) -> 'a -> 'a
(** [fold_range tx t ~lo ~hi f acc] folds [f acc key value] over
    bindings with [lo <= key <= hi] in ascending key order. *)

val reclaim : t -> unit
(** Recycle retired nodes whose epoch has passed the reclamation
    horizon.  Before recycling, the root line is flushed and fenced
    once per batch so no lagging durable root can still reference a
    recycled block; the retire path triggers this automatically once
    enough blocks accumulate (amortizing the extra fence), and the
    explicit call forces a sweep after quiescence. *)

val retired_blocks : t -> int
(** Blocks currently parked on the volatile retire list (a reclamation
    bound for tests). *)

(** {1 Untimed oracles} — raw reads outside any transaction, for
    validation harnesses only. *)

val to_alist : t -> (int * int) list
(** All bindings in ascending key order. *)

val check_invariants : t -> unit
(** Raises [Failure] on any structural violation: node magic/bounds,
    key order, separator bounds, uneven leaf depth. *)
