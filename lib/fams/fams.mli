(** Failure-atomic msync (FAMS): snapshot-based crash consistency.

    The second crash-consistency API beside the PTM: the application
    mutates a mapped working area freely through {!write} and calls
    {!msync_atomic} for durability.  The sync journals the dirty set —
    tracked by the simulated machine's page table at line or page
    granularity — into a region-resident snapshot log, publishes a
    single-cache-line commit record (one flush + one fence), applies
    the journal to the durable home image and retires it.  {!recover}
    replays a committed journal or discards a torn one, then rebuilds
    the working area from the home image.

    Durability semantics are buffered: a crash loses every mutation
    after the last completed [msync_atomic], never a partial sync.

    Concurrency contract: {b single writer}.  A sync snapshots the
    dirty set of all stores since the previous sync; concurrent
    mutators could be captured at a non-prefix boundary.

    Write amplification — bytes journaled per byte logically dirtied —
    is the subsystem's headline metric; {!Stats} carries both sides of
    the ratio plus FAMS-issued fence and flush counts. *)

type t

type granularity = Line | Page

val granularity_name : granularity -> string

(** Injectable protocol bugs for the crashtest oracle: eliding the
    journal drain fence before publish, and leaving the last journal
    entry's tail lines unflushed. *)
type inject = Skip_publish_fence | Torn_journal_entry

val inject_name : inject -> string
val inject_of_name : string -> inject option

module Stats : sig
  type t = {
    mutable syncs : int;
    mutable journal_entries : int;
    mutable bytes_journaled : int;
    mutable bytes_dirtied : int;
    mutable fences : int;
    mutable flushes : int;
    mutable max_journal_words : int;
  }

  val create : unit -> t

  val write_amp : t -> float
  (** [bytes_journaled / bytes_dirtied]; [nan] before any store. *)

  val fields : t -> (string * int) list
  (** Stable (name, value) export pairs. *)
end

val required_heap_words : words:int -> int
(** Minimum simulated heap for a FAMS region with a [words]-word
    working area (header + logs + snapshot log + work and home
    images). *)

val create :
  ?granularity:granularity ->
  ?inject:inject ->
  ?profiler:Pstm.Profile.t ->
  words:int ->
  Memsim.Sim.t ->
  t
(** Format a fresh FAMS region on the machine (untimed) and arm the
    simulator's dirty tracking over the working area.  Default
    granularity is [Line]. *)

val recover : ?inject:inject -> ?profiler:Pstm.Profile.t -> Memsim.Sim.t -> t
(** Attach after a reboot: replay a committed snapshot journal onto
    the home image (idempotent) or discard a torn one, rebuild the
    working area from the home image, re-arm dirty tracking.  Untimed.
    [inject] re-arms a protocol bug for subsequent syncs (mutation
    replays); recovery itself is never mutated.
    @raise Machine.Corrupt_image on an image that
    {!Pmem.Region.attach} or the snapshot-log decoder
    ({!Pmem.Snapshot}, which lists what it rejects) refuses. *)

val msync_atomic : t -> unit
(** Timed, from the single mutator thread: sweep the dirty set into
    the journal, publish the commit record with one fence, apply to
    the home image, retire.  A no-op (plus bookkeeping) when nothing
    is dirty.  Profiler phases: [Snap_sweep] / [Snap_publish] /
    [Snap_apply], bracketed as one transaction. *)

val write : t -> int -> int -> unit
(** [write t addr v]: timed store to working-area-relative [addr];
    marks the dirty tracker and the logical write-amp denominator. *)

val read : t -> int -> int
(** Timed load from the working area. *)

val raw_write : t -> int -> int -> unit
(** Untimed setup store: no dirty tracking; pair with
    {!checkpoint_raw}. *)

val raw_read : t -> int -> int

val checkpoint_raw : t -> unit
(** Untimed: home image := working area, dirty state wiped — declare
    the populated region fully synced before the measured phase. *)

val area : t -> int * int
(** (absolute base of the working area, words). *)

val granularity : t -> granularity
val stats : t -> Stats.t
val region : t -> Pmem.Region.t
