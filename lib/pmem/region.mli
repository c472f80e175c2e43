(** Persistent region: the equivalent of a DAX-mapped pool file, and
    the one owner of the region header.

    Lays out the machine's persistent heap as

    {v
    [ header | roots | per-thread PTM log area | snapshot log | data area ]
    v}

    and records enough in the header to re-attach after a crash.  The
    log area is page-aligned and registered with the machine through
    [mark_log_range], so the PDRAM-Lite backend can map it to
    battery-backed DRAM.  The optional snapshot-log area (sized by
    [snapshot_words], 0 by default) backs the FAMS failure-atomic
    msync journal; it is deliberately {e not} part of the marked log
    range — its commit record is the subsystem's only durability
    story, so it must stay on NVM under every domain.

    Header words:

    {v
    word   contents
    0      magic 0x504d454d ("PMEM")
    1      roots: number of root slots
    2      max_threads: number of per-thread log areas
    3      log words per thread, page aligned
    4      data_start, derived from words 1-3 and 6
    5      the allocator's high-water mark (owned and checked by Alloc)
    6      snapshot-log words (0 = none)
    8..    root slots
    v}

    Each area starts on a page: the log area after the root slots, the
    snapshot log after [max_threads] log areas, the data area after
    the snapshot log.

    {!attach} rejects, as [Machine.Corrupt_image]: a wrong magic; a
    root count, snapshot size or log size below its minimum (0, 0 and
    1) or above the heap size; a thread count below 1 or above the heap
    size; a stored log size that is not page aligned; a layout that
    does not fit in the heap; and a stored [data_start] other than the
    one the layout derives.

    Root slots are named persistent pointers (like [pmemobj_root]):
    applications store the address of their top-level structure in a
    root slot so recovery can find it again. *)

type t

val create :
  ?roots:int ->
  ?log_words_per_thread:int ->
  ?max_threads:int ->
  ?snapshot_words:int ->
  Machine.t ->
  t
(** Format a fresh region on the machine (destroys existing content).
    Defaults: 16 root slots, 8192 log words per thread, 32 threads, no
    snapshot-log area.  Header and layout are written and flushed
    durably.
    @raise Invalid_argument, before writing anything, for sizes
    {!attach} would reject. *)

val attach : Machine.t -> t
(** Re-open an existing region after a reboot: check the header against
    the heap and re-register the log range.
    @raise Machine.Corrupt_image on a header this module's rejection
    list names (the payload names the offending word). *)

val data_start_for :
  roots:int -> log_words_per_thread:int -> max_threads:int -> snapshot_words:int -> int
(** The [data_start] {!create} lays out for these sizes, so a heap can
    be sized before its machine exists. *)

val machine : t -> Machine.t
val roots : t -> int
val max_threads : t -> int

val root_get : t -> int -> int
(** [root_get t i] reads root slot [i] (untimed; 0 when never set). *)

val root_set : t -> int -> int -> unit
(** Durable root update: store, flush, fence (timed). *)

val log_base : t -> tid:int -> int
(** Base address of thread [tid]'s log area. *)

val log_words_per_thread : t -> int

val snapshot_base : t -> int
(** Base address of the snapshot-log area (= [data_start] when the
    region was created without one). *)

val snapshot_words : t -> int
(** Size of the snapshot-log area (0 when absent). *)

val data_start : t -> int
val data_end : t -> int

(**/**)

val high_water_addr : int
(** Header word holding the allocator's persistent high-water mark;
    owned by {!Alloc}. *)
