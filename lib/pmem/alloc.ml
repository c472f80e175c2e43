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

(* Arenas are fixed-size chunks taken from the persistent high-water
   mark.  Arena header word: kind+magic+size; zero means "never
   initialized" (the scan then skips one arena — a bounded leak, the
   price of not needing a log for refills). *)
let arena_words = 2048
let arena_magic = 0xA4E4
let arena_header kind = (arena_magic lsl 20) lor kind
let kind_small = 0
let kind_large = 1

let is_arena_header w = w lsr 20 = arena_magic
let arena_kind w = w land 0xFFFFF

(* Block header word: magic | allocated bit | payload words. *)
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

let persisted_high_water t = t.m.Machine.raw_read Region.high_water_addr

let create region =
  let t = make region in
  t.m.Machine.meta_set Meta.alloc_high_water_idx (persisted_high_water t);
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
      let chunk_words = (words + 2 + arena_words - 1) / arena_words * arena_words in
      let base = claim_chunk t chunk_words in
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

let header_of_payload t payload =
  let h = t.m.Machine.raw_read (payload - 1) in
  if not (is_block_header h) then
    invalid_arg (Printf.sprintf "Alloc: %d is not a live payload address" payload);
  h

let payload_words t payload = header_words (header_of_payload t payload)

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

(* Header scan from data_start to the persisted high-water mark.
   Calls [f ~payload ~words ~allocated] for every decodable block. *)
let scan t f =
  let raw = t.m.Machine.raw_read in
  let hw = persisted_high_water t in
  let p = ref (Region.data_start t.region) in
  while !p < hw do
    let w = raw !p in
    if is_arena_header w && arena_kind w = kind_large then begin
      let h = raw (!p + 1) in
      let span =
        if is_block_header h then begin
          f ~payload:(!p + 2) ~words:(header_words h) ~allocated:(header_allocated h);
          (header_words h + 2 + arena_words - 1) / arena_words * arena_words
        end
        else arena_words
      in
      p := !p + span
    end
    else begin
      if is_arena_header w then begin
        (* Small-object arena: hop block headers until zero/garbage. *)
        let q = ref (!p + 1) in
        let continue = ref true in
        while !continue && !q < !p + arena_words do
          let h = raw !q in
          if is_block_header h then begin
            f ~payload:(!q + 1) ~words:(header_words h) ~allocated:(header_allocated h);
            q := !q + 1 + header_words h
          end
          else continue := false
        done
      end;
      (* Unrecognized arena start: leaked by a crash during refill. *)
      p := !p + arena_words
    end
  done

let recover region =
  let t = make region in
  t.m.Machine.meta_set Meta.alloc_high_water_idx (persisted_high_water t);
  scan t (fun ~payload ~words ~allocated ->
      if not allocated then begin
        if words > max_object_words then t.large_free <- (payload, words) :: t.large_free
        else begin
          let list = t.free.(0).(class_of words) in
          list := payload :: !list
        end
      end);
  t

let live_blocks t =
  let acc = ref [] in
  scan t (fun ~payload ~words ~allocated -> if allocated then acc := (payload, words) :: !acc);
  !acc

