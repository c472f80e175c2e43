module Layout = Machine.Layout

(* Header words; the table is in region.mli. *)
let magic_word = 0x504d454d (* "PMEM" *)
let h_magic = 0
let h_roots = 1
let h_max_threads = 2
let h_log_words = 3
let h_data_start = 4
let h_high_water = 5 (* persistent allocator high-water mark; see Alloc *)
let h_snap_words = 6 (* snapshot-log area size (0 = none); see Fams *)
let h_roots_base = 8

type t = {
  m : Machine.t;
  roots : int;
  max_threads : int;
  log_words_per_thread : int;
  log_base : int;
  snapshot_base : int;
  snapshot_words : int;
  data_start : int;
}

let page_align addr =
  let p = Layout.words_per_page in
  (addr + p - 1) / p * p

(* The one derivation of the layout from the sizes: [create] formats
   with it, [attach] checks a stored header against it. *)
let layout ~roots ~log_words_per_thread ~max_threads ~snapshot_words =
  let log_base = page_align (h_roots_base + roots) in
  let log_words_per_thread = page_align log_words_per_thread in
  let snapshot_base = page_align (log_base + (max_threads * log_words_per_thread)) in
  (log_base, log_words_per_thread, snapshot_base, page_align (snapshot_base + snapshot_words))

let data_start_for ~roots ~log_words_per_thread ~max_threads ~snapshot_words =
  let _, _, _, data_start = layout ~roots ~log_words_per_thread ~max_threads ~snapshot_words in
  data_start

(* The region with these sizes on [m], or why there is none.  Each size
   is bounded by the heap before the layout multiplies them. *)
let make (m : Machine.t) ~roots ~log_words_per_thread ~max_threads ~snapshot_words =
  let words = m.Machine.words in
  let sizes =
    [ ("roots", roots, 0); ("max_threads", max_threads, 1);
      ("log words per thread", log_words_per_thread, 1); ("snapshot words", snapshot_words, 0) ]
  in
  match List.find_opt (fun (_, v, lo) -> v < lo || v > words) sizes with
  | Some (name, v, _) -> Error (Printf.sprintf "%s %d out of range" name v)
  | None ->
    let log_base, log_words_per_thread, snapshot_base, data_start =
      layout ~roots ~log_words_per_thread ~max_threads ~snapshot_words
    in
    if data_start >= words then Error (Printf.sprintf "layout needs more than %d words" words)
    else
      Ok { m; roots; max_threads; log_words_per_thread; log_base; snapshot_base; snapshot_words;
           data_start }

let create ?(roots = 16) ?(log_words_per_thread = 8192) ?(max_threads = 32)
    ?(snapshot_words = 0) (m : Machine.t) =
  let t =
    match make m ~roots ~log_words_per_thread ~max_threads ~snapshot_words with
    | Ok t -> t
    | Error e -> invalid_arg ("Region.create: " ^ e)
  in
  List.iter
    (fun (i, v) -> m.Machine.raw_write i v)
    [ (h_magic, magic_word); (h_roots, roots); (h_max_threads, max_threads);
      (h_log_words, t.log_words_per_thread); (h_data_start, t.data_start);
      (h_high_water, t.data_start); (h_snap_words, snapshot_words) ];
  for i = 0 to roots - 1 do
    m.Machine.raw_write (h_roots_base + i) 0
  done;
  (* Only the PTM log area moves to battery-backed DRAM under
     PDRAM-Lite; the snapshot log must live on NVM — FAMS's commit
     record is its only durability story. *)
  m.Machine.mark_log_range t.log_base t.snapshot_base;
  t

let attach (m : Machine.t) =
  let field = m.Machine.raw_read in
  let corrupt fmt =
    Printf.ksprintf (fun msg -> raise (Machine.Corrupt_image ("Region.attach: " ^ msg))) fmt
  in
  if field h_magic <> magic_word then
    corrupt "bad magic at word %d: found %#x, expected %#x" h_magic (field h_magic) magic_word;
  match
    make m ~roots:(field h_roots) ~max_threads:(field h_max_threads)
      ~log_words_per_thread:(field h_log_words) ~snapshot_words:(field h_snap_words)
  with
  | Error e -> corrupt "header words %d-%d: %s" h_roots h_snap_words e
  | Ok t when field h_log_words <> t.log_words_per_thread ->
    corrupt "log words per thread at word %d: %d is not page aligned" h_log_words
      (field h_log_words)
  | Ok t when field h_data_start <> t.data_start ->
    corrupt "data start at word %d: found %d, the layout puts it at %d" h_data_start
      (field h_data_start) t.data_start
  | Ok t ->
    m.Machine.mark_log_range t.log_base t.snapshot_base;
    t

let machine t = t.m
let roots t = t.roots
let max_threads t = t.max_threads

let root_get t i =
  assert (i >= 0 && i < t.roots);
  t.m.Machine.raw_read (h_roots_base + i)

let root_set t i v =
  assert (i >= 0 && i < t.roots);
  t.m.Machine.store (h_roots_base + i) v;
  if t.m.Machine.needs_flush then begin
    t.m.Machine.clwb (h_roots_base + i);
    if t.m.Machine.needs_fence then t.m.Machine.sfence ()
  end

let[@inline] log_base t ~tid =
  assert (tid >= 0 && tid < t.max_threads);
  t.log_base + (tid * t.log_words_per_thread)

let log_words_per_thread t = t.log_words_per_thread
let snapshot_base t = t.snapshot_base
let snapshot_words t = t.snapshot_words
let data_start t = t.data_start
let data_end t = t.m.Machine.words

(* Exposed for Alloc. *)
let high_water_addr = h_high_water
