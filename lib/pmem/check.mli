(** Region integrity checker (the `pmempool check` analog).

    A client of each persistent format's one decoder: the root slots of
    the {!Region} header, the per-thread PTM logs ({!Log}), the FAMS
    snapshot log when the region has one ({!Snapshot}) and the
    allocator's arena chain ({!Alloc.walk}).  A decoder's rejection
    becomes a [Corruption] finding, so an image that recovery refuses
    never checks clean.  Read-only and safe to run on any attached
    region, including one that has just survived a crash (where armed
    logs and leaked arenas are expected and reported as such, not as
    corruption). *)

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
    inconsistent: a root pointer outside the data area, or anything a
    decoder rejects. *)

val is_clean : report -> bool
(** No [Corruption] findings. *)

val pp : Format.formatter -> report -> unit
