(** Region integrity checker (the `pmempool check` analog).

    Walks a region's persistent metadata — header, root slots, the
    allocator's arena/block-header chains and the per-thread PTM log
    areas — and reports everything suspicious.  Read-only and safe to
    run on any attached region, including one that has just survived a
    crash (where leaked arenas are expected and reported as such,
    not as corruption). *)

type severity = Info | Warning | Corruption

type finding = { severity : severity; what : string }

type report = {
  findings : finding list;  (** in scan order *)
  live_blocks : int;
  free_blocks : int;
  leaked_arenas : int;  (** unrecognizable arena starts (crash leaks) *)
  live_words : int;  (** payload words in allocated blocks *)
}

val run : Region.t -> report
(** Scan the region.  Corruption findings mean persistent metadata is
    inconsistent (overlapping blocks, headers out of bounds, root
    pointers outside the data area, log areas with malformed status). *)

val is_clean : report -> bool
(** No [Corruption] findings. *)

val pp : Format.formatter -> report -> unit
