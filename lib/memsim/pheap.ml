(* Demand-paged heap image.

   A flat [Array.make heap_words 0] costs ~16 MB of zeroing per image
   (heap + media) on every cell of every experiment — ~21 ms of each
   quick cell goes to pages the workload never touches.  This
   representation splits the address space into fixed page-sized chunks
   that all start as one shared, immutable all-zero chunk; a chunk is
   materialized (copied out of the zero page) only on first write.
   Reads are two unsafe loads; writes add one physical-equality test
   against the zero page.  Copies, blits and image serialization walk
   only the touched chunks, so crash-image materialization and reboot
   are O(touched) instead of O(heap). *)

let chunk_words = Machine.Layout.words_per_page
let chunk_shift = 9 (* log2 chunk_words *)
let chunk_mask = chunk_words - 1
let () = assert (1 lsl chunk_shift = chunk_words)

type t = {
  words : int;
  chunks : int array array; (* chunks.(i) == zero  <=>  never written *)
}

(* The shared zero page.  Every read of an untouched chunk goes through
   this array; nothing may ever write to it — all mutation paths below
   materialize first. *)
let zero = Array.make chunk_words 0

let nchunks words = (words + chunk_words - 1) / chunk_words

let create ~words =
  if words <= 0 then invalid_arg "Pheap.create: words must be positive";
  { words; chunks = Array.make (nchunks words) zero }

let words t = t.words

let[@inline] get t addr =
  Array.unsafe_get (Array.unsafe_get t.chunks (addr lsr chunk_shift)) (addr land chunk_mask)

let[@inline] chunk_for_write t ci =
  let c = Array.unsafe_get t.chunks ci in
  if c != zero then c
  else begin
    let fresh = Array.make chunk_words 0 in
    Array.unsafe_set t.chunks ci fresh;
    fresh
  end

let[@inline] set t addr v =
  Array.unsafe_set (chunk_for_write t (addr lsr chunk_shift)) (addr land chunk_mask) v

let touched t =
  let n = ref 0 in
  Array.iter (fun c -> if c != zero then incr n) t.chunks;
  !n

(* Copy [len] words at [base] from [src] to [dst] (same offsets in
   both).  Zero-aware: a zero source chunk zero-fills the destination
   range only when the destination chunk is materialized. *)
let copy_range ~src ~dst base len =
  if base < 0 || len < 0 || base + len > src.words || base + len > dst.words then
    invalid_arg "Pheap.copy_range";
  let pos = ref base in
  let remaining = ref len in
  while !remaining > 0 do
    let ci = !pos lsr chunk_shift in
    let off = !pos land chunk_mask in
    let n = min !remaining (chunk_words - off) in
    let sc = Array.unsafe_get src.chunks ci in
    if sc == zero then begin
      let dc = Array.unsafe_get dst.chunks ci in
      if dc != zero then Array.fill dc off n 0
    end
    else Array.blit sc off (chunk_for_write dst ci) off n;
    pos := !pos + n;
    remaining := !remaining - n
  done

(* [dst] becomes a copy of [src]'s content.  Untouched source chunks
   revert the destination chunk to the shared zero page (dropping any
   materialized garbage); touched chunks are deep-copied, never shared
   — both images stay independently mutable. *)
let assign ~src ~dst =
  if src.words <> dst.words then invalid_arg "Pheap.assign: size mismatch";
  for ci = 0 to Array.length src.chunks - 1 do
    let sc = Array.unsafe_get src.chunks ci in
    if sc == zero then Array.unsafe_set dst.chunks ci zero
    else begin
      let dc = Array.unsafe_get dst.chunks ci in
      if dc == zero then Array.unsafe_set dst.chunks ci (Array.copy sc)
      else Array.blit sc 0 dc 0 chunk_words
    end
  done

let copy t =
  let fresh = create ~words:t.words in
  assign ~src:t ~dst:fresh;
  fresh

let fill_zero t =
  Array.fill t.chunks 0 (Array.length t.chunks) zero

(* Flat-array bridges for the WPQ pending arena: line-sized transfers
   between a heap image and a stride slab.  Line-aligned ranges never
   straddle a chunk (chunk_words is a multiple of words_per_line), but
   the loops stay general for safety. *)
let blit_to_array t src_pos dst dst_pos len =
  if src_pos < 0 || len < 0 || src_pos + len > t.words then invalid_arg "Pheap.blit_to_array";
  let pos = ref src_pos in
  let out = ref dst_pos in
  let remaining = ref len in
  while !remaining > 0 do
    let ci = !pos lsr chunk_shift in
    let off = !pos land chunk_mask in
    let n = min !remaining (chunk_words - off) in
    let c = Array.unsafe_get t.chunks ci in
    if c == zero then Array.fill dst !out n 0 else Array.blit c off dst !out n;
    pos := !pos + n;
    out := !out + n;
    remaining := !remaining - n
  done

let blit_of_array t dst_pos src src_pos len =
  if dst_pos < 0 || len < 0 || dst_pos + len > t.words then invalid_arg "Pheap.blit_of_array";
  let pos = ref dst_pos in
  let inp = ref src_pos in
  let remaining = ref len in
  while !remaining > 0 do
    let ci = !pos lsr chunk_shift in
    let off = !pos land chunk_mask in
    let n = min !remaining (chunk_words - off) in
    Array.blit src !inp (chunk_for_write t ci) off n;
    pos := !pos + n;
    inp := !inp + n;
    remaining := !remaining - n
  done

let iter_touched t f =
  for ci = 0 to Array.length t.chunks - 1 do
    let c = Array.unsafe_get t.chunks ci in
    if c != zero then f ci c
  done

let of_touched ~words pairs =
  let t = create ~words in
  let nc = Array.length t.chunks in
  List.iter
    (fun (ci, data) ->
      if ci < 0 || ci >= nc then invalid_arg "Pheap.of_touched: chunk index out of range";
      if Array.length data <> chunk_words then
        invalid_arg "Pheap.of_touched: bad chunk length";
      t.chunks.(ci) <- Array.copy data)
    pairs;
  t

