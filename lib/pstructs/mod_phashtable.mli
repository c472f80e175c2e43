(** MOD hash table: minimally-ordered-durable key/value map on a
    fixed-depth 16-ary radix trie of purely-functional nodes
    (Haria et al., arXiv 1908.11850).

    Same map API as {!Phashtable}, but where Phashtable mutates bucket
    heads in place under logging, every update here path-copies the
    trie spine (one 17-word directory node per level) plus the chain
    prefix up to the modified node, then swings the descriptor's root
    word — under {!Pstm.Ptm.algorithm} [Mod] that commits with exactly
    one fence and an unfenced 8-byte root swap (buffered durability: a
    crash can lose a WPQ-bounded committed suffix).  The flat segment
    array of
    {!Phashtable} is deliberately avoided: shadow-updating it would
    copy a 512-word segment per write.

    Replaced nodes are retired to a volatile epoch list and recycled
    once {!Pstm.Ptm.min_active_rv} passes their stamp, as in
    {!Mod_bptree}; crash-dropped retire lists leak benignly. *)

type t

val create : Pstm.Ptm.t -> buckets:int -> t
(** [create ptm ~buckets] rounds [buckets] to a power of 16 in
    [16, 4096] (the trie depth follows).  Runs one transaction. *)

val attach : Pstm.Ptm.t -> int -> t
(** Re-attach by descriptor address (e.g. after recovery); the handle
    starts with an empty retire list. *)

val descriptor : t -> int

val put : Pstm.Ptm.tx -> t -> key:int -> value:int -> bool
(** [put tx t ~key ~value] binds [key] (positive).  [true] = new key,
    [false] = replaced. *)

val get : Pstm.Ptm.tx -> t -> int -> int option
val remove : Pstm.Ptm.tx -> t -> int -> bool

val reclaim : t -> unit
(** Force an epoch sweep of the retire list (the retire path triggers
    one automatically once enough blocks accumulate; each sweep
    flushes and fences the root line once so no lagging durable root
    references a recycled block). *)

val retired_blocks : t -> int
(** Blocks parked on the volatile retire list. *)

(** {1 Untimed oracles} *)

val to_alist : t -> (int * int) list
(** All bindings, unordered. *)

val check_invariants : t -> unit
(** Raises [Failure] on structural violations: node magic/bounds,
    keys hashed to the wrong bucket, duplicate keys. *)
