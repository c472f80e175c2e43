type media = Dram | Nvm

type persistence = Adr of { fences : bool } | Eadr | Transient_cache

type model = {
  model_name : string;
  data_media : media;
  log_in_dram : bool;
  persistence : persistence;
  pdram_cache : bool;
  battery : bool;
  durable_publish : bool;
}

let dram_adr =
  {
    model_name = "dram-adr";
    data_media = Dram;
    log_in_dram = false;
    persistence = Adr { fences = true };
    pdram_cache = false;
    battery = false;
    durable_publish = false;
  }

let dram_eadr = { dram_adr with model_name = "dram-eadr"; persistence = Eadr }

let optane_adr =
  {
    model_name = "optane-adr";
    data_media = Nvm;
    log_in_dram = false;
    persistence = Adr { fences = true };
    pdram_cache = false;
    battery = false;
    durable_publish = false;
  }

let optane_adr_nofence =
  { optane_adr with model_name = "optane-adr-nofence"; persistence = Adr { fences = false } }

let optane_eadr = { optane_adr with model_name = "optane-eadr"; persistence = Eadr }

let pdram = { optane_eadr with model_name = "pdram"; pdram_cache = true; battery = true }

(* Memory Mode (Fig 1a): the same DRAM-cache mechanics as PDRAM but no
   reserve power — fast, and nothing survives a failure (the paper's
   §II: contents are effectively reset on reboot). *)
let memory_mode =
  {
    model_name = "memory-mode";
    data_media = Nvm;
    log_in_dram = false;
    persistence = Eadr;
    pdram_cache = true;
    battery = false;
    durable_publish = false;
  }

let pdram_lite = { optane_eadr with model_name = "pdram-lite"; log_in_dram = true }

(* Transiently Persistent CPU Cache (arXiv 2210.17377): the cache
   arrays themselves retain content across a power failure for long
   enough to drain lazily, so — like eADR — no flush or fence is ever
   needed; unlike eADR, reserve power only has to *retain* dirty lines,
   not read them out of SRAM and write them to NVM, so the energy
   accounting differs (see [Sim.Debt]). *)
let transient_cache =
  { optane_eadr with model_name = "transient-cache"; persistence = Transient_cache }

(* HTM-commit (arXiv 1806.01108): the memory controller hardens a
   hardware transaction's write set as one unit at commit, so [publish]
   is durable at retirement — while ordinary stores still pay the full
   ADR clwb/sfence discipline (the STM fallback path is unchanged). *)
let htm_commit = { optane_adr with model_name = "htm-commit"; durable_publish = true }

let all_models =
  [
    dram_adr;
    dram_eadr;
    optane_adr;
    optane_adr_nofence;
    optane_eadr;
    pdram;
    pdram_lite;
    memory_mode;
    transient_cache;
    htm_commit;
  ]

let model_of_name name =
  match List.find_opt (fun m -> m.model_name = name) all_models with
  | Some m -> m
  | None -> invalid_arg (Printf.sprintf "Config.model_of_name: unknown model %S" name)

type latency = {
  cache_hit_ns : int;
  dram_load_ns : int;
  nvm_load_ns : int;
  dram_read_service_ns : int;
  nvm_read_service_ns : int;
  dram_wpq_service_ns : int;
  nvm_wpq_service_ns : int;
  clwb_ns : int;
  sfence_ns : int;
  meta_read_ns : int;
  meta_write_ns : int;
  page_fetch_ns : int;
}

(* nvm_load/nvm_read_service ~ 17 concurrent readers to saturate;
   nvm_load/nvm_wpq_service ~ 4 concurrent writers to saturate (Izraelevitz
   et al., cited in the paper as [46]). *)
let default_latency =
  {
    cache_hit_ns = 6;
    dram_load_ns = 84;
    nvm_load_ns = 252;
    dram_read_service_ns = 4;
    nvm_read_service_ns = 15;
    dram_wpq_service_ns = 8;
    nvm_wpq_service_ns = 62;
    clwb_ns = 90;
    sfence_ns = 15;
    meta_read_ns = 3;
    meta_write_ns = 10;
    page_fetch_ns = 300;
  }

type t = {
  model : model;
  lat : latency;
  nvm_channels : int;
  heap_words : int;
  meta_words : int;
  l3_bytes : int;
  l3_ways : int;
  wpq_capacity : int;
  dram_wpq_capacity : int;
  pdram_cache_bytes : int;
  track_media : bool;
}

let make ?(lat = default_latency) ?(nvm_channels = 1) ?(heap_words = 1 lsl 20)
    ?(meta_words = (1 lsl 20) + 4096) ?(track_media = true) model =
  assert (nvm_channels > 0);
  {
    model;
    lat;
    nvm_channels;
    heap_words;
    meta_words;
    l3_bytes = 32 * 1024;
    l3_ways = 16;
    wpq_capacity = 32;
    dram_wpq_capacity = 128;
    pdram_cache_bytes = 96 * 1024 * 1024;
    track_media;
  }
