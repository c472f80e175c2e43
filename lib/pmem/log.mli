(** The per-thread PTM log format: its one encoder-side addressing and
    its one bounded decoder.  The PTM's writers ([Pstm]'s redo, undo
    and MOD paths), [Ptm.recover], [Ptm.armed_log_lines], the commit
    statistics and {!Check} all go through this module.

    Thread [tid]'s log area starts at [Region.log_base] (page aligned)
    and holds [Region.log_words_per_thread] words:

    {v
    word          contents
    base          status: 0 idle, 1 redo committed, 2 undo active
    base + 1      unused
    base + 2 + 2i entry i: heap address (0 = the sentinel, end of log)
    base + 3 + 2i entry i: value (redo: new value; undo: old value)
    v}

    A log is {e armed} when its status is not idle; recovery replays a
    committed redo log oldest entry first and rolls an active undo log
    back newest first.  The decoder ({!status}, {!fold}) rejects, as
    [Machine.Corrupt_image]: a status word that is none of the three
    tags; an armed log with no sentinel inside its area; and an entry
    whose address lies outside the data area, so a replay can never
    write the region header or a log. *)

val idle : int
val redo_committed : int
val undo_active : int

val entry : base:int -> int -> int
(** [entry ~base i]: address of entry [i]'s address word in the log at
    [base]; its value word is the next one. *)

val capacity : Region.t -> int
(** Entries one transaction may log, leaving room for the sentinel. *)

val lines : int -> int
(** Cache lines a log of [n] entries spans, status word through
    sentinel. *)

val words_read : status:int -> int -> int
(** Words the decoder reads for a log of this status and [n] entries:
    the status word, and for an armed log its entries and sentinel. *)

val reset : Region.t -> tid:int -> unit
(** Untimed: mark [tid]'s log idle. *)

val status : Region.t -> tid:int -> int
(** [tid]'s decoded status word (untimed). *)

val fold : Region.t -> tid:int -> ('a -> int -> int -> 'a) -> 'a -> 'a
(** [fold reg ~tid f acc] folds [f acc addr value] over an armed log's
    entries, oldest first, up to its sentinel; an idle log has none.
    Untimed reads bounded by the log's area. *)
