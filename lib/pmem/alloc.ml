module Layout = Machine.Layout
module Meta = Machine.Meta_layout

type tx_ops = {
  txr : int -> int;
  txw : int -> int -> unit;
  on_commit : (unit -> unit) -> unit;
  on_abort : (unit -> unit) -> unit;
}

(* Small-object size classes (payload words). *)
let classes = [| 1; 2; 3; 4; 6; 8; 12; 16; 24; 32; 48; 64; 96; 128; 192; 256; 384; 512 |]
let num_classes = Array.length classes
let max_object_words = classes.(num_classes - 1)

let class_of words =
  let rec go i = if classes.(i) >= words then i else go (i + 1) in
  if words <= 0 || words > max_object_words then
    invalid_arg (Printf.sprintf "Alloc: bad object size %d" words)
  else go 0

(* Arena and block-header encodings; the table is in alloc.mli. *)
let arena_words = 2048
let arena_magic = 0xA4E4
let arena_header kind = (arena_magic lsl 20) lor kind
let kind_small = 0
let kind_large = 1

let is_arena_header w = w lsr 20 = arena_magic
let arena_kind w = w land 0xFFFFF

(* A large block's chunk: header word, block header and payload,
   rounded up to whole arenas. *)
let chunk_words words = (words + 2 + arena_words - 1) / arena_words * arena_words

let block_magic = 0xB10C

let mk_header ~allocated words =
  (block_magic lsl 24) lor ((if allocated then 1 else 0) lsl 16) lor words

let is_block_header w = w lsr 24 = block_magic
let header_allocated w = w land (1 lsl 16) <> 0
let header_words w = w land 0xFFFF

type arena_cursor = { mutable cur : int; mutable limit : int }

type t = {
  region : Region.t;
  m : Machine.t;
  (* free.(tid).(class) — per-thread volatile free lists of payload addrs *)
  free : int list ref array array;
  (* volatile list of free large chunks: (payload_addr, payload_words) *)
  mutable large_free : (int * int) list;
  arenas : arena_cursor array;
}

let make region =
  let m = Region.machine region in
  let nthreads = Region.max_threads region in
  {
    region;
    m;
    free = Array.init nthreads (fun _ -> Array.init num_classes (fun _ -> ref []));
    large_free = [];
    arenas = Array.init nthreads (fun _ -> { cur = 0; limit = 0 });
  }

let high_water region =
  let hw = (Region.machine region).Machine.raw_read Region.high_water_addr in
  let data_start = Region.data_start region and data_end = Region.data_end region in
  if hw < data_start || hw > data_end || (hw - data_start) mod arena_words <> 0 then
    raise
      (Machine.Corrupt_image
         (Printf.sprintf "Alloc: high-water mark %d off the arena grid of the data area [%d, %d)"
            hw data_start data_end));
  hw

let create region =
  let t = make region in
  t.m.Machine.meta_set Meta.alloc_high_water_idx (high_water region);
  t

(* Advance the persistent high-water mark monotonically and make it
   durable before the space is ever used. *)
let persist_high_water t new_hw =
  let m = t.m in
  if m.Machine.load Region.high_water_addr < new_hw then begin
    m.Machine.store Region.high_water_addr new_hw;
    if m.Machine.needs_flush then begin
      m.Machine.clwb Region.high_water_addr;
      if m.Machine.needs_fence then m.Machine.sfence ()
    end
  end

(* Claim [chunk_words] (a multiple of arena_words) from the high-water
   mark; returns the chunk base. *)
let claim_chunk t chunk_words =
  let m = t.m in
  let rec go () =
    let hw = m.Machine.meta_get Meta.alloc_high_water_idx in
    let new_hw = hw + chunk_words in
    if new_hw > Region.data_end t.region then raise Out_of_memory;
    if m.Machine.meta_cas Meta.alloc_high_water_idx hw new_hw then begin
      persist_high_water t new_hw;
      hw
    end
    else go ()
  in
  go ()

let write_arena_header t base kind =
  let m = t.m in
  m.Machine.store base (arena_header kind);
  if m.Machine.needs_flush then begin
    m.Machine.clwb base;
    if m.Machine.needs_fence then m.Machine.sfence ()
  end

let refill_arena t tid =
  let base = claim_chunk t arena_words in
  write_arena_header t base kind_small;
  let a = t.arenas.(tid) in
  a.cur <- base + 1;
  a.limit <- base + arena_words

let alloc_large t ops ~words =
  (* First fit from the volatile large list. *)
  let rec take acc = function
    | [] -> None
    | (addr, sz) :: rest when sz >= words ->
      t.large_free <- List.rev_append acc rest;
      Some addr
    | entry :: rest -> take (entry :: acc) rest
  in
  let header_addr =
    match take [] t.large_free with
    | Some payload -> payload - 1
    | None ->
      let base = claim_chunk t (chunk_words words) in
      write_arena_header t base kind_large;
      base + 1
  in
  let payload = header_addr + 1 in
  let payload_words = t.m.Machine.raw_read header_addr in
  let size = if is_block_header payload_words then header_words payload_words else words in
  ops.txw header_addr (mk_header ~allocated:true size);
  ops.on_abort (fun () -> t.large_free <- (payload, size) :: t.large_free);
  payload

let alloc t ops ~words =
  if words > max_object_words then alloc_large t ops ~words
  else begin
    let tid = t.m.Machine.tid () in
    let c = class_of words in
    let csize = classes.(c) in
    let list = t.free.(tid).(c) in
    let header_addr =
      match !list with
      | payload :: rest ->
        list := rest;
        ops.on_abort (fun () -> list := payload :: !list);
        payload - 1
      | [] ->
        let a = t.arenas.(tid) in
        if a.cur + 1 + csize > a.limit then refill_arena t tid;
        let a = t.arenas.(tid) in
        let h = a.cur in
        a.cur <- a.cur + 1 + csize;
        let payload = h + 1 in
        ops.on_abort (fun () -> list := payload :: !list);
        h
    in
    ops.txw header_addr (mk_header ~allocated:true csize);
    header_addr + 1
  end

let free t ops payload =
  let h = ops.txr (payload - 1) in
  if not (is_block_header h && header_allocated h) then
    invalid_arg (Printf.sprintf "Alloc.free: %d is not an allocated payload" payload);
  let words = header_words h in
  ops.txw (payload - 1) (mk_header ~allocated:false words);
  let tid = t.m.Machine.tid () in
  ops.on_commit (fun () ->
      if words > max_object_words then t.large_free <- (payload, words) :: t.large_free
      else begin
        let list = t.free.(tid).(class_of words) in
        list := payload :: !list
      end)

type event =
  | Block of { payload : int; words : int; allocated : bool }
  | Leak of string option
  | Garbage of string
  | Corrupt of string

(* The one walk of the arena chain, from data_start to the persisted
   high-water mark, every arena's block chain bounded by the arena. *)
let walk region f =
  let raw = (Region.machine region).Machine.raw_read in
  let hw = high_water region in
  let say kind fmt = Printf.ksprintf (fun what -> f (kind what)) fmt in
  let block payload h =
    f (Block { payload; words = header_words h; allocated = header_allocated h })
  in
  (* A small arena's chain: block headers until a zero or garbage word. *)
  let rec chain p q =
    let h = if q < p + arena_words then raw q else 0 in
    let words = header_words h in
    if not (is_block_header h) then begin
      if h <> 0 then say (fun w -> Garbage w) "arena %d: scan stopped at garbage word %d" p q
    end
    else if words = 0 || q + 1 + words > p + arena_words then
      say (fun w -> Corrupt w) "block at %d overflows its arena (size %d)" q words
    else begin
      block (q + 1) h;
      chain p (q + 1 + words)
    end
  in
  let rec arena p =
    if p < hw then begin
      let w = raw p and h = raw (p + 1) in
      let large = is_arena_header w && arena_kind w = kind_large in
      if large && is_block_header h then begin
        let span = chunk_words (header_words h) in
        if p + span > hw then
          say (fun w -> Corrupt w) "large block at %d spans past the high-water mark" (p + 1)
        else block (p + 2) h;
        arena (p + span)
      end
      else begin
        if large then
          say (fun w -> Leak (Some w)) "large arena at %d has no block header (crash leak)" p
        else if is_arena_header w then chain p (p + 1)
        else if w = 0 then f (Leak None)
        else say (fun w -> Leak (Some w)) "unrecognized arena start at %d (crash leak)" p;
        arena (p + arena_words)
      end
    end
  in
  arena (Region.data_start region)

let recover region =
  let t = make region in
  walk region (function
    | Block { payload; words; allocated = false } ->
      if words > max_object_words then t.large_free <- (payload, words) :: t.large_free
      else begin
        let list = t.free.(0).(class_of words) in
        list := payload :: !list
      end
    | Block _ | Leak _ | Garbage _ | Corrupt _ -> ());
  t.m.Machine.meta_set Meta.alloc_high_water_idx (high_water region);
  t
