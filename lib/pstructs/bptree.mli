(** Persistent B+Tree over the PTM API (the DudeTM benchmark's index).

    Fixed fanout, preemptive splitting on the way down (so a parent
    always has room for a promoted key), leaves chained for ordered
    iteration.  Deletion removes keys from leaves without rebalancing
    (the usual research-benchmark simplification; lookups are
    unaffected, space is reclaimed on the next insert into the leaf).

    All operations take an executing transaction, so callers can
    compose several structure operations atomically (e.g. a TPC-C
    new-order touching three indexes).  Keys must be positive. *)

type t

val create : Pstm.Ptm.t -> t
(** Allocate an empty tree (runs its own transaction). *)

val attach : Pstm.Ptm.t -> int -> t
(** Re-attach to a tree by descriptor address (from a region root). *)

val descriptor : t -> int
(** Persistent descriptor address, for storing in a region root. *)

val insert : Pstm.Ptm.tx -> t -> key:int -> value:int -> bool
(** Upsert; [true] when the key was new, [false] when updated. *)

val lookup : Pstm.Ptm.tx -> t -> int -> int option

val remove : Pstm.Ptm.tx -> t -> int -> bool
(** [true] when the key was present. *)

val fold_range : Pstm.Ptm.tx -> t -> lo:int -> hi:int -> ('a -> int -> int -> 'a) -> 'a -> 'a
(** [fold_range tx t ~lo ~hi f acc] folds [f] over the bindings with
    [lo <= key <= hi] in ascending key order (the YCSB scan). *)

(** {1 Untimed oracles for tests} *)

val to_alist : t -> (int * int) list
(** Sorted key/value pairs, by raw leaf-chain walk. *)

val check_invariants : t -> unit
(** Raw structural check: sorted keys, uniform leaf depth, fanout
    bounds, consistent leaf chain.  Raises [Failure] on violation. *)
