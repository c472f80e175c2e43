(** Configuration of the simulated Optane DC machine.

    Latencies follow the numbers the paper cites from Izraelevitz et al.
    ("Basic Performance Measurements of the Intel Optane DC Persistent
    Memory Module"): [clwb] ~86–94 ns regardless of destination, NVM
    load latency ~3x DRAM on an L3 miss, NVM write bandwidth saturating
    with ~4 writing threads while read bandwidth scales to ~17 threads.
    Bandwidths are expressed as per-cache-line service times of shared
    servers; saturation emerges from queueing.

    Capacities are scaled by 2^10 relative to the paper's machine
    (GB→MB, MB→KB) so experiments fit in the container; latencies are
    kept in real nanoseconds, preserving every ratio the paper's
    findings rest on. *)

type media = Dram | Nvm

type persistence =
  | Adr of { fences : bool }
      (** stores persist once they reach the WPQ; requires [clwb]+[sfence].
          [fences = false] is the deliberately incorrect variant used for
          Table III (flushes without ordering). *)
  | Eadr  (** reserve power flushes caches on failure; no flushes needed *)
  | Transient_cache
      (** Transiently Persistent CPU Cache (arXiv 2210.17377): the cache
          arrays themselves ride out the failure and drain lazily.  Same
          programming model as eADR (no flushes, no fences, dirty lines
          survive) but a different reserve-energy story: lines only need
          to be {e retained}, not read out and written to NVM, so the
          per-line energy term is roughly an order of magnitude smaller
          (see [Sim.Debt.reserve_energy_nj]). *)

type model = {
  model_name : string;
  data_media : media;  (** where persistent program data lives *)
  log_in_dram : bool;  (** PDRAM-Lite: PTM log pages in battery-backed DRAM *)
  persistence : persistence;
  pdram_cache : bool;  (** PDRAM/Memory Mode: DRAM is a page cache of NVM *)
  battery : bool;  (** reserve power to flush the DRAM cache on failure *)
  durable_publish : bool;
      (** HTM-commit (arXiv 1806.01108): the memory controller hardens a
          hardware transaction's write set as one unit at commit, so
          [Machine.publish] is durable at retirement even when ordinary
          stores still need the ADR clwb/sfence discipline. *)
}

(** The durability/placement models evaluated in the paper. *)

val dram_adr : model
(** "DRAM" baseline with ADR-style instrumentation (Fig 3/4): data on a
    DRAM ramdisk — not actually persistent — same clwb/fence count. *)

val dram_eadr : model
(** "DRAM" baseline without flushes (Fig 3/4, Fig 6/7 "DRAM"). *)

val optane_adr : model
(** AppDirect + ADR (Fig 3/4). *)

val optane_adr_nofence : model
(** Incorrect ADR with clwb but no sfence — Table III only. *)

val optane_eadr : model
(** AppDirect + eADR (Fig 3/4, 6/7). *)

val pdram : model
(** Proposed PDRAM domain: all of DRAM a persistent cache of Optane. *)

val pdram_lite : model
(** Proposed PDRAM-Lite domain: only PTM log pages in persistent DRAM;
    other data behaves as under eADR. *)

val memory_mode : model
(** Memory Mode (§II, Fig 1a): DRAM caches Optane pages with no
    reserve power — PDRAM's performance, no persistence.  Used by the
    extension experiment comparing PDRAM's cost to Memory Mode. *)

val transient_cache : model
(** Transiently persistent CPU cache: eADR's crash semantics and
    instruction stream, retention-only reserve-energy accounting. *)

val htm_commit : model
(** ADR machine whose HTM commits are durable at publish time; the
    [Ptm.Htm] algorithm runs log-free here despite [needs_flush]. *)

val all_models : model list

val model_of_name : string -> model
(** Lookup by [model_name]; raises [Invalid_argument] on unknown name. *)

type latency = {
  cache_hit_ns : int;  (** L3-resident access *)
  dram_load_ns : int;  (** L3 miss served by DRAM *)
  nvm_load_ns : int;  (** L3 miss served by Optane (~3x DRAM) *)
  dram_read_service_ns : int;  (** DRAM read-channel occupancy per line *)
  nvm_read_service_ns : int;  (** Optane read occupancy (saturates ~17 rd threads) *)
  dram_wpq_service_ns : int;  (** DRAM write drain per line *)
  nvm_wpq_service_ns : int;  (** Optane write drain per line (saturates ~4 wr threads) *)
  clwb_ns : int;  (** latency of the clwb instruction itself *)
  sfence_ns : int;  (** fence base cost, excluding drain wait *)
  meta_read_ns : int;  (** volatile metadata read (orec check) *)
  meta_write_ns : int;  (** volatile metadata write / CAS *)
  page_fetch_ns : int;  (** extra latency to install a page in the PDRAM cache *)
}

val default_latency : latency

type t = {
  model : model;
  lat : latency;
  nvm_channels : int;
      (** address-interleaved Optane channels; service times are
          per-channel, so aggregate bandwidth scales with the count
          (the paper's machine interleaves 12 DIMMs; the default
          calibration folds that into one aggregate channel) *)
  heap_words : int;
  meta_words : int;
  l3_bytes : int;
  l3_ways : int;
  wpq_capacity : int;  (** bounded NVM write-pending-queue entries *)
  dram_wpq_capacity : int;
  pdram_cache_bytes : int;  (** DRAM page-cache capacity under PDRAM *)
  track_media : bool;  (** maintain the persisted media image (crash tests) *)
}

val make :
  ?lat:latency ->
  ?nvm_channels:int ->
  ?heap_words:int ->
  ?meta_words:int ->
  ?track_media:bool ->
  model ->
  t
(** Defaults: one NVM channel, 1 Mi-word (8 MB) heap, 2^20+4096-word
    metadata space, media tracking on.  Every machine has a 32 KB
    16-way L3 (the paper's L3 scaled by 2^10), an NVM WPQ of 32 lines
    (128 for DRAM) and a 96 MB PDRAM page cache (the paper's 96 GB of
    per-socket DRAM scaled by 2^10). *)
