(** Int-keyed, int-valued hash map: open addressing with linear
    probing over one flat [int array].

    Built for the STM's per-transaction bookkeeping (write-set index,
    lock map, flush dedup, HTM line set), which is cleared on every
    attempt and probed on every transactional operation.  Lookups
    return a caller-chosen sentinel instead of raising or boxing an
    option; [clear] is O(1) (an epoch bump, no slot is touched); the
    table grows when its load would exceed one half and never shrinks,
    so in steady state nothing allocates.  There is no iteration and
    no removal. *)

type t

val create : int -> t
(** [create n]: an empty table of at least [n] slots (rounded up to a
    power of two, minimum 2), so it holds [n / 2] bindings before its
    first growth. *)

val length : t -> int
(** Number of bindings. *)

val find : t -> int -> absent:int -> int
(** The value bound to the key, or [absent] when there is none. *)

val mem : t -> int -> bool

val replace : t -> int -> int -> unit
(** Bind the key, overwriting any previous binding. *)

val clear : t -> unit
(** Drop every binding in O(1); capacity is kept. *)
