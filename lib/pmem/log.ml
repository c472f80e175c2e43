(* The per-thread PTM log format; the layout table and the decoder's
   rejection list are in log.mli. *)

let idle = 0
let redo_committed = 1
let undo_active = 2

let[@inline] entry ~base i = base + 2 + (2 * i)

let capacity reg = (Region.log_words_per_thread reg - 3) / 2

(* The status word, the unused word, [n] pairs and the sentinel, from a
   line-aligned base. *)
let[@inline] lines n = ((2 * n) + 3 + 7) / 8

let words_read ~status n = if status = idle then 1 else (2 * n) + 2

let reset reg ~tid = (Region.machine reg).Machine.raw_write (Region.log_base reg ~tid) idle

let corrupt base fmt =
  Printf.ksprintf
    (fun what -> raise (Machine.Corrupt_image (Printf.sprintf "Log: log at %d: %s" base what)))
    fmt

let status reg ~tid =
  let base = Region.log_base reg ~tid in
  let s = (Region.machine reg).Machine.raw_read base in
  if s <> idle && s <> redo_committed && s <> undo_active then corrupt base "unknown status %d" s;
  s

let fold reg ~tid f acc =
  let raw = (Region.machine reg).Machine.raw_read in
  let base = Region.log_base reg ~tid in
  let limit = base + Region.log_words_per_thread reg in
  let rec walk acc pos =
    if pos >= limit then corrupt base "no sentinel in the log's area at word %d" pos
    else
      let addr = raw pos in
      if addr = 0 then acc
      else if addr < Region.data_start reg || addr >= Region.data_end reg then
        corrupt base "entry at word %d outside the data area: %d" pos addr
      else walk (f acc addr (raw (pos + 1))) (pos + 2)
  in
  if status reg ~tid = idle then acc else walk acc (entry ~base 0)
