(** Abstract machine executing persistent-memory programs.

    The PTM algorithms, persistent allocator and data structures are all
    written against this interface.  Two backends implement it:

    - {!Memsim.Sim} — the deterministic discrete-event simulated machine
      (virtual clocks, cache model, bounded WPQ, durability domains);
      used for all paper experiments.
    - {!Machine.Native} — real memory and real OCaml domains; used to
      stress-test the concurrency of the algorithms.

    Addresses are word indices (one word = 8 simulated bytes) into a
    flat persistent heap.  A cache line is {!Layout.words_per_line}
    words; a page is {!Layout.words_per_page} words.

    Two address spaces exist:
    - the {e persistent heap} ([load]/[store]/[clwb]/[sfence]),
      crash-survivable according to the backend's durability domain;
    - the {e volatile metadata space} ([meta_*]), holding ownership
      records and the global version clock — always lost on a crash,
      and offering atomic compare-and-swap.  A backend hands it out
      zeroed; the simulated one shares one space among all facades of
      a machine and recycles it once the machine's owner releases it
      (every later meta operation on such a facade raises
      [Invalid_argument]).  The simulated backend holds each metadata
      word in 32 bits: a store of a value outside
      [\[-2{^31}, 2{^31})] raises [Invalid_argument] and leaves the
      word unchanged.  Orec words (a version shifted left by one, or a
      thread id with the lock bit), the clock (one tick per writer
      commit) and the allocator's high-water heap address stay far
      inside it.  {!Native} keeps full-width words. *)

exception Crashed
(** Raised inside a simulated thread when the machine loses power.
    Code between [atomic] boundaries must let it propagate: the whole
    point of a crash is that no cleanup runs. *)

exception Corrupt_image of string
(** A persistent image that exists but cannot be trusted: a region
    header with a bad magic ({!Pmem.Region.attach}) or a torn/truncated
    on-disk media file ([Memsim.Sim.load_image]).  The payload carries
    file/offset context.  Deliberately distinct from [Sys_error] ("no
    image at all"), so a service restart can choose between formatting
    a fresh store and refusing to touch a damaged one. *)

type t = {
  words : int;  (** persistent heap size in words *)
  meta_words : int;  (** volatile metadata space size in words *)
  needs_flush : bool;
      (** whether the durability domain requires [clwb] for persistence
          (true for ADR; false for eADR, PDRAM, PDRAM-Lite) *)
  needs_fence : bool;
      (** whether [sfence] ordering is required (false for eADR-family
          domains and for the deliberately incorrect "no-fence" ADR
          variant of Table III) *)
  durable_publish : bool;
      (** whether [publish] alone makes its write set durable even when
          [needs_flush] holds — the HTM-commit durability domain, where
          the controller hardens a hardware transaction's write set as
          one unit at retirement *)
  load : int -> int;  (** timed read of a heap word *)
  validated_load : int -> int -> int -> int array -> bool;
      (** [validated_load orec bound addr out]: a seqlock-style read of
          heap word [addr] under metadata word [orec] (a TL2 read).  It
          reads [orec] as [meta_get] would and stores the word in
          [out.(0)].  When that word is even (unlocked) and at most
          [bound], it loads [addr] as [load] would, but stores the
          word's value at the load's issue in [out.(1)], and then
          reads [orec] again as [meta_get] would; the answer is
          whether the second word equals the first.  Otherwise the
          answer is [false] and nothing else happens.  The caller tells
          the two [false]s apart by [out.(0)].  A value read at issue
          is the one the load would return unless a write lands while
          it is in flight, and the re-check sees any write made under
          [orec]'s lock.  The timing, accesses and their order are
          those of the three plain calls, so a facade may substitute
          them ({!plain_validated_load}); {!Native} does exactly that.
          [out] has at least two slots. *)
  store : int -> int -> unit;  (** timed write of a heap word *)
  clwb : int -> unit;
      (** write-back the cache line containing the given word towards
          the memory controller; persistence is guaranteed only after a
          subsequent [sfence] *)
  clwb_many : int array -> int -> unit;
      (** [clwb_many addrs n] write-backs the cache lines of the first
          [n] addresses back-to-back, as a coalesced sweep: every
          write-back is handed to the memory controller at the same
          issue instant, so their drains overlap instead of each
          waiting out the previous clwb's issue latency.  Semantically
          identical to [n] consecutive [clwb]s — persistence still
          requires a subsequent [sfence] — only the charged issue
          timing differs.  Callers pass line-distinct addresses; the
          backend does not deduplicate. *)
  sfence : unit -> unit;
      (** drain: wait until all of this thread's outstanding write-backs
          have reached the durability domain *)
  meta_get : int -> int;
  meta_set : int -> int -> unit;
  meta_cas : int -> int -> int -> bool;
      (** [meta_cas idx expected value] — atomic compare-and-swap *)
  meta_fetch_add : int -> int -> int;
      (** [meta_fetch_add idx delta] returns the previous value *)
  exclusive : unit -> bool;
      (** whether the caller provably runs alone on this machine: no
          other thread can observe or race a metadata word while it
          holds.  The simulated backend answers [true] exactly outside
          its scheduler's run (untimed setup, population and recovery,
          where time does not advance and one host thread drives the
          machine); {!Native} always answers [false].  The answer
          cannot change inside one step of the caller that does not
          start or end a run, so a PTM samples it once per top-level
          transaction and, when it holds, skips its concurrency
          control.  It must still perform every heap and clock
          operation: those are machine state.  A facade
          [{ m with exclusive = (fun () -> false) }] forces the full
          protocol on the same machine. *)
  tid : unit -> int;  (** small dense id of the calling thread *)
  now_ns : unit -> float;  (** current (virtual or real) time *)
  pause : int -> unit;  (** back-off for approximately [ns] *)
  raw_read : int -> int;
      (** untimed heap read — initialization, recovery and test oracles only *)
  raw_write : int -> int -> unit;  (** untimed heap write — same restrictions *)
  mark_log_range : int -> int -> unit;
      (** [mark_log_range lo hi] declares words [lo, hi) as the
          machine's PTM-log space; under PDRAM-Lite the backend maps
          these pages to battery-backed DRAM.  A machine holds one log
          range (one region, whose header sits at word 0): marking the
          held range again is a no-op, and marking a different one
          replaces it. *)
  publish : int array -> int array -> int -> unit;
      (** [publish addrs values n] stores the first [n] (address,
          value) pairs as one indivisible event — the commit of a
          hardware transaction, whose speculative lines become visible
          (and, under eADR-class domains, durable) all at once.  A
          power failure can land before or after a publish, never
          inside it. *)
}

val plain_validated_load : t -> int -> int -> int -> int array -> bool
(** [plain_validated_load m] is [validated_load]'s contract as the
    three plain calls [m.meta_get], [m.load] and [m.meta_get], so the
    value stored in [out.(1)] is the load's, at its completion. *)

module Layout : sig
  val bytes_per_word : int
  val words_per_line : int
  val words_per_page : int
  val line_of_addr : int -> int
  val page_of_addr : int -> int
  val addr_of_line : int -> int
end

(** Agreed-upon slots in the volatile metadata space, so independent
    components (PTM clock, allocator, orec table) never collide. *)
module Meta_layout : sig
  val clock_idx : int
  (** the PTM's global version clock *)

  val alloc_high_water_idx : int
  (** the allocator's volatile high-water mirror *)

  val orec_base : int
  (** first index of the ownership-record table *)
end

module Native : sig
  (** Native backend: real memory, real OCaml domains, wall-clock time.

      There is no persistence here — [clwb] and [sfence] are ordering
      no-ops — so this backend cannot run the crash experiments.  Its
      purpose is to prove that the PTM algorithms are genuinely concurrent:
      the stress tests run them on parallel domains with atomic ownership
      records and check serializability of the results.

      Thread ids are per-domain, assigned densely on first use from
      domain-local storage. *)

  val create : words:int -> meta_words:int -> t
  (** Fresh native machine.  [needs_flush]/[needs_fence] are [false]
      (flush instructions would be meaningless on the GC heap); algorithms
      still exercise their flush call-sites, which become no-ops. *)
end
