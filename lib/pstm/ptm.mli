(** Persistent transactional memory: the paper's core subject.

    One shared transaction core ([Ptm_core]: versioned ownership records
    (orecs), a TL2-style global clock with timestamp extension, read-set
    validation, the flush/fence helpers, the coalesced write-set sweep
    and the commit bookkeeping) and one private module per commit
    protocol, each implementing [Ptm_core.ALGORITHM] ([read], [write],
    [try_commit], [abort]):

    - {!Redo} ([Redo_alg], "orec-lazy" from the LLVM PTM suite the paper
      benchmarks, Zardoshti et al., PACT'19): writes are buffered in a
      per-thread persistent redo log (volatile index, persistent payload
      — the split-log tuning of §III-A); orecs are acquired at commit
      time; the durable commit point is the flushed log-status word,
      after which values are written back in place.  O(1) fences per
      transaction.
    - {!Undo} ([Undo_alg], "orec-eager"): orecs are acquired at first
      write; the old value is appended to a persistent undo log and
      {e fenced} before each in-place store, giving O(W) fences — the
      cost the paper blames for undo logging losing to redo logging.
    - {!Htm} ([Htm_alg]) and {!Mod} ([Mod_alg]): see their constructors.

    Durability-domain instrumentation is taken from the machine:
    [needs_flush]/[needs_fence] decide which [clwb]/[sfence] are
    issued, so the same code runs under ADR, the incorrect
    no-fence-ADR of Table III, eADR, PDRAM and PDRAM-Lite.

    Transactions provide failure atomicity and durable linearizability:
    once [atomic] returns, the transaction's effects survive a crash;
    if a crash interrupts it, {!recover} rolls it back (undo) or
    replays it (redo committed-but-not-written-back). *)

type algorithm =
  | Redo
  | Undo
  | Htm
      (** Extension (the paper's §V future work): a TSX-style hardware
          transaction under an eADR-class durability domain.  No
          logging, no flushes; the commit publishes the write set as
          one indivisible event, so its lines become visible and
          durable together.  Capacity- or conflict-troubled
          transactions fall back to the redo STM path.  Rejected at
          {!create} time under flush-requiring (ADR) domains, where
          clwb would abort the hardware transaction. *)
  | Mod
      (** MOD, minimally ordered durable structures (Haria et al.,
          arXiv 1908.11850): writes are buffered volatile, and a
          transaction of the functional shadow-update shape (fresh
          shadow nodes plus the {e one} home word that swings the
          structure's root) commits with shadow stores, one vectored
          clwb sweep, {e one fence} and an unfenced 8-byte root swap.
          Durability is {e buffered}: at most the final operation per
          structure is lost.  A transaction writing a second home word
          falls back to the redo path for that attempt. *)

val algorithms : algorithm list
(** Every algorithm, in declaration order. *)

val algorithm_name : algorithm -> string
(** Stable names: ["redo"], ["undo"], ["htm"], ["mod"]. *)

val algorithm_of_name : string -> algorithm option
(** Inverse of {!algorithm_name}; [None] for any other string. *)

type flush_timing =
  | At_commit  (** flush all redo-log lines in a tight pre-commit loop *)
  | Incremental  (** flush each log line as it fills (§III-B ablation) *)

(** Deliberate ordering bugs for mutation-testing the crash oracles
    (never set in real use — a checker that never fails is untested). *)
type inject =
  | Skip_fence
      (** every sfence elided: write-backs race in the WPQ; for MOD
          the whole pre-publish ordering point is skipped — no shadow
          sweep (clwbs or fence) before the root swap, so the root can
          reach media while the nodes it points at are still
          cache-only (the lone sfence is timing-redundant in this
          machine model; see [Mod_alg.sweep]) *)
  | Reorder_log_apply
      (** redo: the durable commit status is raised {e before} the log
          entries persist, so recovery can replay a stale log; undo:
          entries are armed without their own write-back/fence, so an
          in-place store can beat its undo entry to media; MOD: the
          root swap is issued {e before} the shadow sweep, so a crash
          in between recovers a root pointing at unswept garbage *)
  | Tear_write
      (** redo/undo: the coalesced commit write-back sweep drops its
          last gathered line, leaving one committed line volatile;
          MOD: the root swap tears — only the low byte of the new root
          reaches media (a memcpy-style non-atomic pointer store), the
          corrective full store stays cache-only *)

val inject_name : inject -> string
(** Stable names: ["skip-fence"], ["reorder-log-apply"], ["tear-write"]
    (used in crashtest replay specs and CRASHTEST_INJECT). *)

val inject_of_name : string -> inject option

type t
(** A PTM runtime bound to one machine: region, allocator, orec table,
    clock, per-thread logs and statistics. *)

type tx
(** An executing transaction; only valid inside the callback of
    {!atomic}. *)

exception Log_overflow
(** A transaction wrote more distinct words than the per-thread
    persistent log can hold. *)

val create :
  ?algorithm:algorithm ->
  ?orec_bits:int ->
  ?flush_timing:flush_timing ->
  ?coalesce:bool ->
  ?max_threads:int ->
  ?log_words_per_thread:int ->
  ?rng_seed:int ->
  ?inject:inject ->
  Machine.t ->
  t
(** Format a fresh region on [machine] and initialize the runtime.
    Defaults: [Redo], 2^20 orecs, [At_commit], coalescing on,
    32 threads, 8192-word logs.

    [rng_seed] (default [0x5EED]) is the base of the per-thread backoff
    RNG streams (thread [tid] draws from a generator seeded
    [rng_seed + tid]).  All of a PTM instance's randomness derives from
    it, so a driver that threads its own seed here owns every stream of
    the simulation explicitly — nothing process-global, and two
    instances never share generator state.

    [coalesce] (default [true]) enables the software flush-optimisation
    layer: dirty cache lines are deduplicated per commit (each line
    clwb'd at most once), log appends are persisted as one vectored
    clwb sweep behind a single fence, and commit-time flushes are all
    issued before the one durability fence so their WPQ drains overlap.
    With [coalesce:false] the runtime runs the naive per-entry
    discipline — a clwb and an ordering fence per log entry and per
    written word — for A/B measurement of what coalescing saves.
    Both modes produce identical heap states; only flush/fence traffic
    and timing differ.

    Raises [Invalid_argument], before writing anything, for [Htm] on a
    flush-requiring domain or an orec table larger than the machine's
    metadata space. *)

(** What one pass of crash recovery did: how many per-thread logs were
    scanned, how many log words were examined, and how many entries
    were replayed (redo, committed) or rolled back (undo, in-flight).
    Recovery runs on raw, untimed machine operations — it advances no
    virtual clock — so services that want to report a {e simulated}
    recovery time combine these counts with the machine's configured
    latencies (see [Kvserve.Service]). *)
module Recovery_report : sig
  type t = {
    logs_scanned : int;
    words_scanned : int;
    entries_replayed : int;
    entries_rolled_back : int;
  }
end

val recover :
  ?algorithm:algorithm ->
  ?orec_bits:int ->
  ?flush_timing:flush_timing ->
  ?coalesce:bool ->
  ?rng_seed:int ->
  ?profiler:Profile.t ->
  ?inject:inject ->
  Machine.t ->
  t
(** Attach to an existing region after a reboot and run crash
    recovery: replay committed redo logs, roll back in-flight undo
    logs, clear log statuses and rebuild the allocator's free lists.
    Idempotent (a crash during recovery is handled by recovering
    again).  When [profiler] is given, recovery is recorded as a
    {!Profile.Recovery} phase and the profiler stays installed.
    Rejects the configurations {!create} rejects, before touching the
    image. *)

val region : t -> Pmem.Region.t
val machine : t -> Machine.t
val algorithm : t -> algorithm

val coalescing : t -> bool
(** Whether the flush-coalescing commit path is enabled. *)

val allocator : t -> Pmem.Alloc.t
(** The runtime's allocator (for capacity/live-block oracles). *)

(** {1 Transactions} *)

val atomic : t -> (tx -> 'a) -> 'a
(** [atomic t f] runs [f] as a transaction, retrying on conflicts with
    randomized exponential backoff.  An exception raised by [f] aborts
    the transaction and is re-raised.  Nesting is flattened: an inner
    [atomic] on the same runtime joins the outer transaction. *)

val read : tx -> int -> int
(** Transactional read of a heap word. *)

val write : tx -> int -> int -> unit
(** Transactional write of a heap word. *)

val alloc : tx -> int -> int
(** Transactionally allocate a block of the given word count; rolled
    back if the transaction aborts. *)

val free : tx -> int -> unit
(** Transactionally free a block; space is recycled only after
    commit. *)

val on_commit : tx -> (unit -> unit) -> unit
(** Register a volatile callback to run after the durable commit
    point. *)

val abort_and_retry : tx -> 'a
(** Explicitly abort the current attempt and retry from the start
    (usable for optimistic waiting). *)

(** {1 Non-transactional durable accesses} *)

val root_get : t -> int -> int
val root_set : t -> int -> int -> unit

(** {1 Epoch reclamation support (MOD structures)} *)

val clock : t -> int
(** Current value of the global version clock (a read, not a tick). *)

val min_active_rv : t -> int
(** Smallest read-version among transactions currently executing
    ([max_int] when none are).  A shadow node unlinked by a root swap
    that read clock value [wv] can only still be referenced by a
    transaction whose snapshot predates the swap ([rv < wv]); once
    [min_active_rv t >= wv] the node is provably unreachable and its
    block may be recycled.  This is the reclamation horizon for the
    MOD structures' epoch free-lists. *)

(** {1 Statistics} *)

module Stats : sig
  type ptm := t

  type t = {
    commits : int;
    aborts : int;
    read_only_commits : int;
    max_write_set : int;  (** largest write set (distinct words) seen *)
    max_log_lines : int;  (** largest persistent log footprint, in cache lines *)
  }

  val get : ptm -> t
  val reset : ptm -> unit

  val commits_per_abort : t -> float
  (** The paper's Tables I/II metric; [infinity] when no aborts. *)
end

(** {1 Diagnostics} *)

val set_profiler : t -> Profile.t option -> unit
(** Install (or remove) a phase profiler (see {!Profile}).  Off by
    default.  The profiler observes the machine clock at phase
    boundaries and never advances it: enabling one changes no simulated
    timing.  Install before spawning workers for coherent streams. *)

val profiler : t -> Profile.t option

val last_recovery : t -> Recovery_report.t option
(** Report of the recovery pass that produced this runtime; [None] for
    a runtime built by {!create}. *)
