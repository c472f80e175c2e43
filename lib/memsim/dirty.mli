(** Dirty tracking over a window of the persistent heap.

    A page table with per-page dirty bits plus a per-line dirty bitmap,
    populated from the simulated store path.  {!note} is allocation-free
    (two compares and bit operations) so it can ride the zero-allocation
    store fast path; {!clear} and the iterators are O(dirty pages).
    This is the substrate for failure-atomic msync: the FAMS layer
    sweeps the dirty set at line or page granularity into its snapshot
    journal. *)

type t

val create : lo:int -> hi:int -> t
(** Track word addresses in [\[lo, hi)].  [lo] must be page-aligned
    (the page table indexes relative to it). *)

val note : t -> int -> unit
(** Record a store to an absolute word address; out-of-window addresses
    are ignored.  Allocation-free except for amortized growth of the
    dirty-page stack (bounded by the page count). *)

val lo : t -> int
val hi : t -> int

val iter_dirty_pages : t -> (int -> unit) -> unit
(** Visit each dirty page's base word address, ascending. *)

val iter_dirty_lines_of_page : t -> int -> (int -> unit) -> unit
(** [iter_dirty_lines_of_page t page_addr f]: visit the base word
    address of each dirty line within the (dirty) page at [page_addr],
    ascending. *)

val clear : t -> unit
(** Reset all dirty state; O(dirty pages). *)
