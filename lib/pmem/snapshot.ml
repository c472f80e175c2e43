(* The FAMS snapshot-log format; the layout table and the decoder's
   rejection list are in snapshot.mli. *)

module Layout = Machine.Layout

let seq = 0
let count = 1
let dwords = 2
let h_words = 5
let h_unit = 6
let journal_off = Layout.words_per_line

type area = { words : int; unit_words : int; work_base : int; home_base : int }

let page_align addr =
  let p = Layout.words_per_page in
  (addr + p - 1) / p * p

(* Worst-case journal footprint: every line of every page dirty.  Line
   entries (1 + 8 words each, 64 per page) outweigh one page entry
   (1 + 512), so the line bound covers both unit sizes. *)
let size_for ~words =
  let npages = (words + Layout.words_per_page - 1) / Layout.words_per_page in
  let lines_per_page = Layout.words_per_page / Layout.words_per_line in
  page_align (journal_off + (npages * lines_per_page * (1 + Layout.words_per_line)))

let data_words ~words = 2 * page_align words

let area reg ~words ~unit_words =
  let work_base = Region.data_start reg in
  { words; unit_words; work_base; home_base = work_base + page_align words }

(* The stored unit tag of each unit size. *)
let tags = [ (1, Layout.words_per_line); (2, Layout.words_per_page) ]

let corrupt fmt =
  Printf.ksprintf (fun msg -> raise (Machine.Corrupt_image ("Snapshot: " ^ msg))) fmt

let format reg ~words ~unit_words =
  let a = area reg ~words ~unit_words in
  let m = Region.machine reg in
  if a.work_base + data_words ~words > m.Machine.words then
    invalid_arg
      (Printf.sprintf "Snapshot.format: a %d-word working area needs a bigger heap than %d words"
         words m.Machine.words);
  let base = Region.snapshot_base reg in
  List.iter
    (fun (i, v) -> m.Machine.raw_write (base + i) v)
    [ (seq, 0); (count, 0); (dwords, 0); (h_words, words);
      (h_unit, fst (List.find (fun (_, u) -> u = unit_words) tags)) ];
  a

let decode reg =
  let m = Region.machine reg in
  let base = Region.snapshot_base reg in
  if Region.snapshot_words reg = 0 then corrupt "region has no snapshot area";
  let words = m.Machine.raw_read (base + h_words) in
  (* Working area and home image, each page aligned, fit the data area. *)
  let room = (Region.data_end reg - Region.data_start reg) / 2 / Layout.words_per_page in
  if words <= 0 || words > room * Layout.words_per_page then
    corrupt "bad working-area size %d" words;
  let tag = m.Machine.raw_read (base + h_unit) in
  match List.assoc_opt tag tags with
  | Some unit_words -> area reg ~words ~unit_words
  | None -> corrupt "bad granularity tag %d" tag

let committed reg a =
  let m = Region.machine reg in
  let base = Region.snapshot_base reg in
  if m.Machine.raw_read (base + seq) = 0 then None
  else begin
    let n = m.Machine.raw_read (base + count) in
    let d = m.Machine.raw_read (base + dwords) in
    if d <> a.unit_words then
      corrupt "committed journal has %d-word units, the area says %d" d a.unit_words;
    if n < 0 || n > (Region.snapshot_words reg - journal_off) / (1 + d) then
      corrupt "committed journal of %d entries exceeds the snapshot area" n;
    Some n
  end

let iter reg a ~read n f =
  let pos = ref (Region.snapshot_base reg + journal_off) in
  for e = 1 to n do
    let unit = read !pos in
    if unit < 0 || unit mod a.unit_words <> 0 || unit >= a.words then
      corrupt "journal entry %d/%d has invalid unit address %d" e n unit;
    f unit (!pos + 1);
    pos := !pos + 1 + a.unit_words
  done
