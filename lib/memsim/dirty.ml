(* Dirty tracking over a window of the persistent heap.

   A page table over [\[lo, hi)] with per-page dirty bits plus a
   per-line dirty bitmap, fed from the store path.  [note] is the only
   hot-loop entry point and costs two compares and a handful of bit
   operations — no allocation, preserving the zero-allocation store
   discipline.  [clear] and iteration are O(dirty pages): the dirty
   page stack remembers first-touch order, and a page's 64 line bits
   occupy exactly 8 bitmap bytes, so clearing is a short Bytes.fill per
   dirty page. *)

module Layout = Machine.Layout

let lines_per_page = Layout.words_per_page / Layout.words_per_line
let line_bytes_per_page = lines_per_page / 8

type t = {
  lo : int;
  hi : int;
  line_bits : Bytes.t; (* bit per line of the window *)
  page_bits : Bytes.t; (* bit per page of the window *)
  mutable pages : int array; (* window-relative indices of dirty pages *)
  mutable npages : int;
}

let create ~lo ~hi =
  if lo < 0 || hi <= lo then invalid_arg "Dirty.create: empty window";
  if lo mod Layout.words_per_page <> 0 then
    invalid_arg "Dirty.create: window must start on a page boundary";
  let words = hi - lo in
  let npages_total = (words + Layout.words_per_page - 1) / Layout.words_per_page in
  let nlines = npages_total * lines_per_page in
  {
    lo;
    hi;
    line_bits = Bytes.make ((nlines + 7) / 8) '\000';
    page_bits = Bytes.make ((npages_total + 7) / 8) '\000';
    pages = Array.make (max 16 (min npages_total 1024)) 0;
    npages = 0;
  }

let[@inline] bit_set bytes i =
  let byte = i lsr 3 in
  let mask = 1 lsl (i land 7) in
  let old = Char.code (Bytes.unsafe_get bytes byte) in
  if old land mask = 0 then begin
    Bytes.unsafe_set bytes byte (Char.unsafe_chr (old lor mask));
    true
  end
  else false

let[@inline] bit_get bytes i =
  Char.code (Bytes.unsafe_get bytes (i lsr 3)) land (1 lsl (i land 7)) <> 0

let push_page t p =
  if t.npages = Array.length t.pages then begin
    let bigger = Array.make (2 * t.npages) 0 in
    Array.blit t.pages 0 bigger 0 t.npages;
    t.pages <- bigger
  end;
  t.pages.(t.npages) <- p;
  t.npages <- t.npages + 1

let[@inline] note t addr =
  if addr >= t.lo && addr < t.hi then begin
    let rel = addr - t.lo in
    ignore (bit_set t.line_bits (rel / Layout.words_per_line) : bool);
    let p = rel / Layout.words_per_page in
    if bit_set t.page_bits p then push_page t p
  end

let lo t = t.lo
let hi t = t.hi
(* Dirty pages in ascending address order (the stack records first-touch
   order; sorting makes journal layout canonical).  [f] receives the
   absolute word address of each dirty page's base. *)
let iter_dirty_pages t f =
  let idx = Array.sub t.pages 0 t.npages in
  Array.sort compare idx;
  Array.iter (fun p -> f (t.lo + (p * Layout.words_per_page))) idx

(* Dirty lines of one dirty page, ascending; [f] receives absolute word
   addresses of line bases. *)
let iter_dirty_lines_of_page t page_addr f =
  let p = (page_addr - t.lo) / Layout.words_per_page in
  let first = p * lines_per_page in
  for l = first to first + lines_per_page - 1 do
    if bit_get t.line_bits l then f (t.lo + (l * Layout.words_per_line))
  done

let clear t =
  for k = 0 to t.npages - 1 do
    let p = t.pages.(k) in
    let byte = p lsr 3 in
    Bytes.unsafe_set t.page_bits byte
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get t.page_bits byte) land lnot (1 lsl (p land 7))));
    Bytes.fill t.line_bits (p * line_bytes_per_page) line_bytes_per_page '\000'
  done;
  t.npages <- 0
