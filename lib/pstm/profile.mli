(** Per-transaction phase profiler for the PTM runtime.

    Attributes every in-transaction virtual nanosecond to a named phase
    (read-set lookups, log appends, clwb issue, fence drain waits, WPQ
    backpressure stalls, write-back, validation, backoff, recovery),
    per thread, into streaming counters, per-phase latency histograms
    and a bounded span ring for trace export.

    The profiler only {e observes} the machine's clock ([Machine.now_ns]
    at phase boundaries) and never issues a timed operation, so
    attaching one adds zero virtual-time perturbation.  Within a
    transaction the phases partition time exactly: the per-thread sum
    of {!phase_ns} over all phases equals {!txn_ns}.

    All updates follow the deterministic DES interleaving, so profiles
    are bit-deterministic across repeated runs of the same
    configuration. *)

type phase =
  | Read_set  (** transactional reads (orec checks, loads, extension) *)
  | Log_append  (** write-path logging: redo/undo entries, status words *)
  | Clwb_issue  (** clwb issue cost, excluding WPQ backpressure *)
  | Fence_wait  (** sfence: drain wait for own WPQ entries *)
  | Wpq_stall  (** bounded-WPQ backpressure paid at clwb issue *)
  | Coalesce  (** pipelined commit sweep: interleaved write-back + flush of deduped lines *)
  | Write_back  (** redo in-place write-back / undo rollback stores / HTM publish *)
  | Validate  (** commit-time orec acquisition + read-set validation *)
  | Backoff  (** randomized backoff between attempts *)
  | Recovery  (** crash recovery (untimed; counted, 0 ns) *)
  | Snap_sweep  (** FAMS msync: journaling the dirty set into the snapshot log *)
  | Snap_publish  (** FAMS msync: durable commit-record publish *)
  | Snap_apply  (** FAMS msync: applying journaled units to the home image *)
  | Other  (** in-transaction time not claimed by any phase above *)

val all_phases : phase list
(** Fixed export order (determinism). *)

val phase_name : phase -> string
(** Stable export name, e.g. ["fence-wait"]. *)

type t

val create : ?span_capacity:int -> ?wpq_stall_probe:(int -> int) -> Machine.t -> t
(** [create m] builds a profiler observing [m]'s clock and thread ids.
    [span_capacity] bounds the span ring (default 65536; oldest spans
    are overwritten).  [wpq_stall_probe tid] should return the
    cumulative WPQ stall ns paid by [tid]
    (e.g. [Sim.wpq_stall_ns_of sim ~tid]); when given, clwb slices are
    split into {!Clwb_issue} and {!Wpq_stall}. *)

(** {1 Recording} (called by the instrumented runtime) *)

val txn_begin : t -> unit
val txn_end : t -> committed:bool -> unit

val note_abort : t -> unit
(** Count one failed attempt of the current thread's transaction. *)

val note_saved : t -> fences:int -> flushes:int -> unit
(** Credit the coalescing ledger of the current thread: [fences]
    ordering points and [flushes] clwbs that a naive per-entry commit
    would have issued but this commit elided.  Bookkeeping only — no
    clock sample, so calling it perturbs nothing. *)

val with_phase : t -> phase -> (unit -> 'a) -> 'a
(** Scope [f]'s execution to [phase] (nestable; exception-safe). *)

(** The two leaf recorders wrap one machine operation each and share
    {!with_phase}'s close: the slice's time, one slice count, its
    duration histogram and its span go to the named phase. *)

val leaf_flush : t -> phase -> flushes:int -> (unit -> 'a) -> 'a
(** Run [f] (a clwb or a run of [flushes] clwbs) as a slice of
    [phase] — {!Clwb_issue} for a plain flush, {!Coalesce} for the
    batched commit sweep, a [Snap_*] phase for FAMS.  With a stall
    probe and [flushes > 0] the slice splits: the probe delta goes to
    {!Wpq_stall}, the remainder to [phase], which also counts the
    [flushes]. *)

val leaf_fence : t -> phase -> (unit -> 'a) -> 'a
(** Run [f] (one sfence) as a slice of [phase] ({!Fence_wait} for the
    PTM), charging it the drain wait and one fence. *)

(** {1 Read-out} *)

val tids : t -> int list
(** Threads that recorded anything, ascending. *)

val phase_ns : t -> tid:int -> phase -> int
val phase_count : t -> tid:int -> phase -> int
val phase_fences : t -> tid:int -> phase -> int
val phase_flushes : t -> tid:int -> phase -> int
val phase_hist : t -> tid:int -> phase -> Repro_util.Histogram.t

val txn_ns : t -> tid:int -> int
(** Total in-transaction virtual time; equals the sum of [phase_ns]
    over {!all_phases}. *)

val total_phase_ns : t -> tid:int -> int
val commits : t -> tid:int -> int
val aborts : t -> tid:int -> int

val fences_saved : t -> tid:int -> int
(** Fences a naive commit path would have issued beyond the actual
    count — the accumulated {!note_saved} credit. *)

val flushes_saved : t -> tid:int -> int
(** Likewise for clwbs elided by line dedup and batching. *)

val txn_hist : t -> tid:int -> Repro_util.Histogram.t

(** {1 Run-level read-out} *)

val run_sum : t -> (t -> tid:int -> int) -> int
(** [run_sum t f] sums a per-thread counter over {!tids}, e.g.
    [run_sum t commits] or [run_sum t fences_saved]. *)

type run_phase = { count : int; ns : int; fences : int; flushes : int }

val run_phase : t -> phase -> run_phase
(** A phase's slice count, ns, fences and flushes summed over
    threads. *)

val run_total : t -> run_phase
(** {!run_phase} summed over {!all_phases}: e.g. every fence and
    flush of the run. *)

val merged_phase_hist : t -> phase -> Repro_util.Histogram.t
(** All threads' slice histograms for [phase], merged. *)

type span = { tid : int; label : string; start_ns : int; stop_ns : int }

val spans : t -> span list
(** Retained spans, oldest first (phase slices plus ["txn"] /
    ["txn-failed"] transaction envelopes). *)

val spans_recorded : t -> int

val spans_since : t -> int -> span list
(** [spans_since t mark] returns the retained spans recorded at or
    after [mark] (a value previously read from {!spans_recorded}),
    oldest first.  Lets a caller bracket an operation — sample
    {!spans_recorded}, run it, read back exactly the slices it
    produced — without copying the whole ring.  Spans that have been
    overwritten since [mark] are silently gone. *)
