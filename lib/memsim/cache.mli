(** Set-associative write-back cache model (the shared L3).

    Tracks line residency and dirtiness only; data always lives in the
    simulated heap (a line's content is, by construction, the current
    heap value).  Replacement is LRU within a set, kept by position:
    each set holds its ways in recency order, most recent first, so a
    hit moves its line to the front and a miss evicts the last way.  No
    per-way timestamp is kept. *)

type t

val create : bytes:int -> ways:int -> t
(** [bytes] total capacity; [ways] associativity; 64-byte lines.  The
    number of sets is rounded down to a power of two (at least one). *)

val hit : int
val miss_clean : int

val access_fast : t -> line:int -> write:bool -> int
(** Look up [line] and make it its set's most recent line, installing
    it on a miss in place of the set's least recently used line (an
    invalid way while the set is not full); set the dirty bit when
    [write].  Returns [hit] (-1), [miss_clean] (-2: miss with no dirty
    victim), or the evicted dirty line's number (>= 0, write-back
    required).  Allocates nothing. *)

val clean : t -> line:int -> bool
(** [clwb] behaviour: clear the line's dirty bit, keeping it resident
    (clwb, unlike clflush, retains the line).  Returns whether it was
    resident and dirty — i.e. whether a write-back is actually sent. *)

val dirty_lines : t -> int list
(** All resident dirty lines, in no particular order — what eADR-class
    domains flush on a power failure. *)

val reset : t -> unit

val reset_stats : t -> unit
(** Zero the hit/miss/write-back counters, keeping contents. *)

val hits : t -> int
val misses : t -> int
val writebacks : t -> int
(** Dirty evictions (write-backs caused by capacity, not by clwb). *)
