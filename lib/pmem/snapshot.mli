(** The FAMS snapshot-log format: the one owner of the snapshot area's
    commit record, its journal and the placement of the working area
    and home image.  [Fams] writes and replays it through this module;
    {!Check} decodes it.

    The region's snapshot area ([Region.snapshot_base],
    [Region.snapshot_words] words) starts with a one-line header, the
    commit record, so it becomes durable atomically:

    {v
    word        contents
    0  seq      nonzero = journal committed, not yet retired
    1  count    committed journal entries
    2  dwords   data words per entry
    5  words    working-area words (static)
    6  unit     unit tag: 1 line (8 words), 2 page (512 words) (static)
    8..         journal: count entries of [unit address][dwords words]
    v}

    The data area holds the working area from [Region.data_start] and
    the home image right after it, each [words] rounded up to a page;
    unit addresses are relative to either.

    The decoder ({!decode}, {!committed}, {!iter}) rejects, as
    [Machine.Corrupt_image]: a region without a snapshot area; a
    working-area size that is not positive or leaves no room for the
    home image in the data area; a unit tag other than 1 or 2; a
    committed journal whose [dwords] differs from the unit size or
    whose [count] is negative or overflows the snapshot area; and an
    entry whose unit address is negative, unaligned or past the
    working area. *)

val seq : int
val count : int
val dwords : int
(** Offsets of the commit-record words from [Region.snapshot_base]. *)

val journal_off : int
(** Offset of the journal's first entry from [Region.snapshot_base]. *)

val size_for : words:int -> int
(** Snapshot-area words a [words]-word working area can need. *)

val data_words : words:int -> int
(** Data-area words a [words]-word working area and its home image
    take. *)

type area = {
  words : int;  (** working-area words *)
  unit_words : int;
  work_base : int;
  home_base : int;
}

val format : Region.t -> words:int -> unit_words:int -> area
(** Untimed: write a header with no committed journal.
    @raise Invalid_argument when the working area and home image do
    not fit in the heap. *)

val decode : Region.t -> area
(** The static header, checked against the region (untimed). *)

val committed : Region.t -> area -> int option
(** [Some count] when the commit record is set (untimed). *)

val iter : Region.t -> area -> read:(int -> int) -> int -> (int -> int -> unit) -> unit
(** [iter reg a ~read n f] calls [f unit payload] for the journal's
    first [n] entries in order, reading each entry's unit address with
    [read] (a timed [load] when a sync applies its own journal) and
    passing the address of its first data word. *)
