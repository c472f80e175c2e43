module Layout = Machine.Layout

(* Header words. *)
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

let layout ~roots ~log_words_per_thread ~max_threads ~snapshot_words (m : Machine.t) =
  let log_base = page_align (h_roots_base + roots) in
  let log_words_per_thread = page_align log_words_per_thread in
  let snapshot_base = page_align (log_base + (max_threads * log_words_per_thread)) in
  let data_start = page_align (snapshot_base + snapshot_words) in
  if data_start >= m.Machine.words then failwith "Region: heap too small for layout";
  (log_base, log_words_per_thread, snapshot_base, data_start)

let create ?(roots = 16) ?(log_words_per_thread = 8192) ?(max_threads = 32)
    ?(snapshot_words = 0) (m : Machine.t) =
  if snapshot_words < 0 then invalid_arg "Region.create: negative snapshot_words";
  let log_base, log_words_per_thread, snapshot_base, data_start =
    layout ~roots ~log_words_per_thread ~max_threads ~snapshot_words m
  in
  m.Machine.raw_write h_magic magic_word;
  m.Machine.raw_write h_roots roots;
  m.Machine.raw_write h_max_threads max_threads;
  m.Machine.raw_write h_log_words log_words_per_thread;
  m.Machine.raw_write h_data_start data_start;
  m.Machine.raw_write h_high_water data_start;
  m.Machine.raw_write h_snap_words snapshot_words;
  for i = 0 to roots - 1 do
    m.Machine.raw_write (h_roots_base + i) 0
  done;
  (* Only the PTM log area moves to battery-backed DRAM under
     PDRAM-Lite; the snapshot log must live on NVM — FAMS's commit
     record is its only durability story. *)
  m.Machine.mark_log_range log_base snapshot_base;
  { m; roots; max_threads; log_words_per_thread; log_base; snapshot_base; snapshot_words; data_start }

let attach (m : Machine.t) =
  let found = m.Machine.raw_read h_magic in
  if found <> magic_word then
    raise
      (Machine.Corrupt_image
         (Printf.sprintf "Region.attach: bad magic at word %d: found %#x, expected %#x" h_magic
            found magic_word));
  let roots = m.Machine.raw_read h_roots in
  let max_threads = m.Machine.raw_read h_max_threads in
  let log_words_per_thread = m.Machine.raw_read h_log_words in
  let data_start = m.Machine.raw_read h_data_start in
  let snapshot_words = m.Machine.raw_read h_snap_words in
  let log_base = page_align (h_roots_base + roots) in
  let snapshot_base = page_align (log_base + (max_threads * log_words_per_thread)) in
  m.Machine.mark_log_range log_base snapshot_base;
  { m; roots; max_threads; log_words_per_thread; log_base; snapshot_base; snapshot_words; data_start }

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
