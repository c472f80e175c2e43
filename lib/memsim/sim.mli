(** The simulated Optane DC machine.

    Combines the DES scheduler, the L3 cache model, the memory
    controller (bounded WPQ + read/write channels for DRAM and NVM),
    the PDRAM page-cache directory and the durability-domain rules into
    a {!Machine.t} that PTM code runs against.

    Persistence model (per cache line):
    - a store dirties the line in the L3;
    - [clwb] captures the line's current content and sends it to the
      WPQ, charging the issuing thread the clwb latency plus a stall if
      the bounded WPQ is full;
    - under ADR the content becomes power-safe only when the memory
      controller services the WPQ entry; with interleaved channels,
      service completions can reorder relative to issue order, so an
      unfenced flush has a real loss window (the Table III no-fence
      hazard) while [sfence] — which waits for the thread's own
      outstanding entries to complete — closes it;
    - a dirty line evicted by capacity also transits the WPQ (persisting
      at service time under ADR, unordered by sfence) — this is the
      write-back traffic that saturates eADR at scale (§III-C);
    - on a power failure, ADR keeps the media image plus every WPQ
      entry serviced strictly before the crash instant; eADR-family
      domains additionally flush resident dirty lines; PDRAM persists
      the entire heap (its DRAM page cache is battery-backed).

    A [Sim.t] runs one workload: spawn threads, [run], read stats, and
    — for crash experiments — [reboot] into a fresh machine whose heap
    is the surviving media image. *)

type t

val create : Config.t -> t

val config : t -> Config.t

val machine : t -> Machine.t
(** The {!Machine.t} facade.  Timed operations must only be called from
    simulated threads (between [spawn] and the end of [run]).  Every
    facade of one [t] shares one volatile metadata space, built zeroed
    by the first call: it reuses the calling domain's idle buffer when
    there is one (see {!release}), else allocates.  Each metadata word
    is held in 32 bits: a [meta_set], [meta_cas] or [meta_fetch_add]
    whose stored value would fall outside [\[-2{^31}, 2{^31})] raises
    [Invalid_argument] and leaves the word unchanged.
    @raise Invalid_argument once [t] has been {!release}d. *)

val release : t -> unit
(** Hand [t]'s metadata space back for reuse: zero the pages its
    machine wrote and keep it as the calling domain's idle buffer (at
    most one per domain: it replaces an idle buffer of another size,
    and one of the same size leaves it to the GC).  Call it once the
    owner is done with [t]'s machine — after reading stats, never while
    threads run.  A meta operation on a facade taken before the release
    then raises [Invalid_argument], and so does a later {!machine}
    call; heap access, stats and {!reboot} keep working.  Releasing
    twice does nothing.  {!reboot} releases the machine it reboots. *)

val with_ : t -> (t -> 'a) -> 'a
(** [with_ t f] is [f t], with [t] {!release}d when [f] returns or
    raises: the bracket for a scope that owns [t]. *)

val enable_trace : ?capacity:int -> t -> Trace.t
(** Start recording machine events into a fresh ring buffer (see
    {!Trace}); returns it for inspection.  Call before [run]. *)

val spawn : t -> (unit -> unit) -> int

val run : ?crash_at:int -> t -> unit

val now : t -> int
(** Virtual time: current thread's clock during [run], final time after. *)

val crashed : t -> bool

val track_dirty : t -> lo:int -> hi:int -> Dirty.t
(** Arm dirty tracking (per-page bits + per-line bitmap, see {!Dirty})
    over word addresses [\[lo, hi)], fed from the timed store path at
    one branch per store.  Untimed [raw_write]s are never tracked, so
    recovery replay cannot re-dirty the window it restores.  Replaces
    any previous tracker; {!reboot} returns an untracked machine.
    [lo] must be page-aligned. *)

val fence_wait_ns_of : t -> tid:int -> int
(** Cumulative sfence drain wait paid by one thread (0 for unknown
    tids).  The per-tid values sum to {!Stats.t.fence_wait_ns}. *)

val wpq_stall_ns_of : t -> tid:int -> int
(** Cumulative WPQ backpressure stall paid by one thread (0 for unknown
    tids).  Bulk PDRAM page drains are not charged to any thread, so
    the per-tid sum is a lower bound on {!Stats.t.wpq_stall_ns}. *)

val reboot : t -> t
(** Post-crash (or post-run) machine: fresh scheduler, caches, queues
    and volatile metadata; heap and media initialized from the
    surviving media image according to the durability domain — the
    image {!save_image} would write, booted the way {!load_image}
    boots a file.  The PTM log range is volatile too: the new machine
    has none until the region is attached again ([Pmem.Region.attach],
    which PTM recovery calls).  Requires [track_media = true].  The
    power failure loses the old machine's volatile metadata, so
    [reboot] {!release}s it: the new machine's first {!machine} call
    reuses that buffer, zeroed.  Rebooting the same [t] again stays
    valid, to replay one crash or to start many runs from one finished,
    {!persist_all}ed machine (the crash engine's prepared machine). *)

val reset_timing : t -> unit
(** Forget timing state accumulated by an untimed setup phase (memory
    controller queues, fence targets, all counters) while keeping
    memory contents and cache residency.  Call between population and
    the measured phase; never while threads are running. *)

val persist_all : t -> unit
(** Declare the current heap contents durable (media := heap) — used
    after untimed initialization, before the measured/crashed phase. *)

val save_image : t -> string -> unit
(** Write the surviving media image (per the durability domain, as
    {!reboot} would compute it) to a file — the simulated DIMMs become
    actually durable across host processes.  Requires
    [track_media = true].  The file is a header of four 4-byte
    big-endian ints (magic, heap words, chunk words, chunk count), each
    touched chunk as its index and its words (8 bytes little-endian
    each), and a 64-bit checksum of all of it; nothing follows.  This
    format replaced an earlier [Marshal] payload, whose files it does
    not read; no image file is kept across versions. *)

val load_image : Config.t -> string -> t
(** Fresh machine whose heap and media are initialized from a file
    written by {!save_image}: the same boot as {!reboot}, so it has no
    PTM log range until the region is attached.
    @raise Machine.Corrupt_image on any file {!save_image} did not
    write for this configuration: wrong size, header or length,
    checksum mismatch, out-of-range chunk index or word (the payload
    carries the file path and offset).  No other exception escapes,
    except [Sys_error] when the file cannot be opened — restart code
    can tell "no image" from "torn image". *)

(** Reserve-power accounting (the paper's §V future work: "we do not
    have a formula or model for estimating reserve power requirements
    for a workload").  The debt is everything a power failure would
    have to finish writing on reserve energy. *)
module Debt : sig
  type sim := t

  type t = {
    wpq_lines : int;  (** lines in flight in the bounded NVM WPQ *)
    dirty_l3_lines : int;  (** persistent-page lines dirty in the L3 *)
    dirty_dram_pages : int;  (** dirty pages in the PDRAM directory *)
    armed_log_lines : int;
        (** lines of the PTM logs recovery would replay or roll back,
            where the model keeps the log in DRAM (PDRAM-Lite); else 0 *)
  }

  val zero : t
  (** No debt at all. *)

  val sample : sim -> armed_log_lines:(unit -> int) -> t
  (** Instantaneous debt (callable from a monitor thread mid-run).
      [armed_log_lines ()] is the PTM's count of armed log lines
      ([Pstm.Ptm.armed_log_lines]); the machine reads no PTM log word
      itself, and calls it only when the model keeps the log in DRAM. *)

  val pending_lines : sim -> armed_log_lines:(unit -> int) -> int
  (** [wpq_lines + armed_log_lines] of {!sample}, computed without the
      L3 and page-cache scans: the cheap admission probe. *)

  val reserve_energy_nj : Config.model -> t -> float
  (** Energy to retire the debt under [model]'s durability domain (its
      [persistence] alone decides), using per-line NVM-write and
      DRAM-read costs documented in DESIGN.md.  ADR pays only for the
      WPQ; eADR adds the L3 flush; PDRAM adds the DRAM page cache;
      PDRAM-Lite adds the armed logs. *)
end

(** Machine-wide counters for reports. *)
module Stats : sig
  type sim := t

  type t = {
    loads : int;
    stores : int;
    l3_hits : int;
    l3_misses : int;
    writebacks : int;  (** capacity write-backs (dirty evictions) *)
    clwbs : int;
    sfences : int;
    fence_wait_ns : int;  (** total drain wait imposed by sfence *)
    wpq_stall_ns : int;  (** total backpressure from the bounded NVM WPQ *)
    fence_wait_ns_by_tid : int array;  (** per-thread share of [fence_wait_ns] *)
    wpq_stall_ns_by_tid : int array;  (** per-thread share of [wpq_stall_ns] *)
    nvm_reads : int;
    dram_reads : int;
    pdram_page_hits : int;
    pdram_page_misses : int;
    inline_advances : int;  (** scheduler waits that advanced the clock inline *)
    context_switches : int;  (** scheduler waits that switched threads *)
    settled_waits : int;
        (** switches the scheduler made inside a suspended thread's
            program (a validated load's later waits, an sfence's fence
            cost), requeuing it without a resume: the resumes are
            [context_switches - settled_waits] *)
  }

  val get : sim -> t

  val fields : t -> (string * int) list
  (** Every machine counter as a (stable export name, value) pair, in a
      fixed order — the feed for a metrics registry.  The per-tid
      arrays and the scheduler counters (host-side cost, not a
      modelled quantity) are excluded. *)
end
