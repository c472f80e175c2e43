(* Failure-atomic msync (FAMS): snapshot-based crash consistency.

   The application mutates a mapped working area freely through
   {!write}; durability is a whole-snapshot operation, {!msync_atomic}:

     sweep    journal every dirty unit (line or page, per the
              granularity knob) of the working area into the region's
              snapshot log (format: Pmem.Snapshot), then flush the
              journal lines and drain them with one fence;
     publish  write the one-line commit record and make it durable
              with one flush + one fence: the snapshot is committed
              iff [seq <> 0];
     apply    copy the journaled units onto the home image (the
              durable copy readers of the *recovered* region see),
              flush, fence, then retire the snapshot by clearing [seq]
              (flush + fence) so the journal slots can be reused.

   A crash before the publish fence leaves [seq = 0]: recovery
   discards the torn journal and the region reverts to the previous
   snapshot (buffered durability).  A crash after it leaves
   [seq <> 0]: recovery replays the journal onto the home image —
   idempotent, because entries carry absolute content — and then
   clears [seq].  Either way the working area is rebuilt from the home
   image, so no partially-synced mutation is ever visible.

   Write amplification is the subsystem's headline metric: bytes
   journaled per byte logically dirtied.  Page-granularity tracking
   (the OS path: 512-word units) journals a whole page for a one-word
   store; line granularity (8-word units) cuts that 64-fold on sparse
   writes.  The per-word logical bitmap below is the denominator.

   Concurrency contract: FAMS is single-writer.  [msync_atomic]
   snapshots the dirty set of *all* stores since the previous sync;
   with concurrent mutators a sweep could capture a non-prefix subset
   of another thread's writes and recovery would not be durably
   linearizable.  The bench and crash harnesses spawn one mutator.

   Failure injection (for the crashtest oracle):
   - [Skip_publish_fence] elides the sweep's drain fence, so the
     commit record's write-back is unordered with the journal's — the
     record can become durable while journal entries are still in
     flight in the WPQ and recovery then replays stale journal lines
     (modeled by issuing the record's clwb ahead of the journal batch,
     since the simulator's per-channel FIFO would hide the missing
     order for a single contiguous batch);
   - [Torn_journal_entry] leaves the last journal entry's tail lines
     unflushed, so a committed record can point at a torn entry.
   Both are silent on eADR-family domains (which need no flushes or
   fences — that is the point of those domains); under ADR the crash
   explorer must find a window where recovery produces an illegal
   state. *)

module Layout = Machine.Layout
module Profile = Pstm.Profile

type granularity = Line | Page

let granularity_name = function Line -> "line" | Page -> "page"

let unit_words = function Line -> Layout.words_per_line | Page -> Layout.words_per_page

type inject = Skip_publish_fence | Torn_journal_entry

let inject_name = function
  | Skip_publish_fence -> "skip-publish-fence"
  | Torn_journal_entry -> "torn-journal-entry"

let inject_of_name = function
  | "skip-publish-fence" -> Some Skip_publish_fence
  | "torn-journal-entry" -> Some Torn_journal_entry
  | _ -> None

module Stats = struct
  type t = {
    mutable syncs : int;
    mutable journal_entries : int;
    mutable bytes_journaled : int; (* entry headers + payloads *)
    mutable bytes_dirtied : int; (* unique words stored since last sync *)
    mutable fences : int; (* sfences issued by FAMS *)
    mutable flushes : int; (* clwbs issued by FAMS *)
    mutable max_journal_words : int; (* high-water journal footprint of one sync *)
  }

  let create () =
    {
      syncs = 0;
      journal_entries = 0;
      bytes_journaled = 0;
      bytes_dirtied = 0;
      fences = 0;
      flushes = 0;
      max_journal_words = 0;
    }

  let write_amp t =
    if t.bytes_dirtied = 0 then nan
    else float_of_int t.bytes_journaled /. float_of_int t.bytes_dirtied

  let fields t =
    [
      ("syncs", t.syncs);
      ("journal_entries", t.journal_entries);
      ("bytes_journaled", t.bytes_journaled);
      ("bytes_dirtied", t.bytes_dirtied);
      ("fams_fences", t.fences);
      ("fams_flushes", t.flushes);
      ("max_journal_words", t.max_journal_words);
    ]
end

type t = {
  m : Machine.t;
  region : Pmem.Region.t;
  inject : inject option;
  profiler : Profile.t option;
  dirty : Memsim.Dirty.t;
  (* the working area the application stores into and the durable
     home image recovery reads *)
  area : Pmem.Snapshot.area;
  snap_base : int;
  snap_words : int;
  logical : Bytes.t; (* per-word dirty bit since last sync (write-amp denominator) *)
  mutable logical_words : int;
  mutable seq : int; (* next commit sequence number (volatile; any nonzero works) *)
  mutable lines_buf : int array; (* scratch for coalesced clwb sweeps *)
  stats : Stats.t;
}

let fams_roots = 16
let fams_log_words = Layout.words_per_page
let fams_max_threads = 1

let required_heap_words ~words =
  Pmem.Region.data_start_for ~roots:fams_roots ~log_words_per_thread:fams_log_words
    ~max_threads:fams_max_threads
    ~snapshot_words:(Pmem.Snapshot.size_for ~words)
  + Pmem.Snapshot.data_words ~words

let area t = (t.area.work_base, t.area.words)
let granularity t = if t.area.unit_words = unit_words Line then Line else Page
let stats t = t.stats
let region t = t.region

let[@inline] check_user_addr t addr =
  if addr < 0 || addr >= t.area.words then
    invalid_arg
      (Printf.sprintf "Fams: address %d outside working area of %d words" addr t.area.words)

let[@inline] mark_logical t addr =
  let byte = addr lsr 3 in
  let mask = 1 lsl (addr land 7) in
  let old = Char.code (Bytes.unsafe_get t.logical byte) in
  if old land mask = 0 then begin
    Bytes.unsafe_set t.logical byte (Char.unsafe_chr (old lor mask));
    t.logical_words <- t.logical_words + 1
  end

let write t addr v =
  check_user_addr t addr;
  mark_logical t addr;
  t.m.Machine.store (t.area.work_base + addr) v

let read t addr =
  check_user_addr t addr;
  t.m.Machine.load (t.area.work_base + addr)

(* Untimed setup access: bypasses the clock, the dirty tracker and the
   logical bitmap.  Callers must follow with {!checkpoint_raw} or the
   next crash discards the writes. *)
let raw_write t addr v =
  check_user_addr t addr;
  t.m.Machine.raw_write (t.area.work_base + addr) v

let raw_read t addr =
  check_user_addr t addr;
  t.m.Machine.raw_read (t.area.work_base + addr)

(* Untimed checkpoint: home := work, dirty state wiped — brings a
   freshly populated region to "everything synced" without paying
   simulated time, mirroring the PTM harnesses' untimed setup phase. *)
let checkpoint_raw t =
  for i = 0 to t.area.words - 1 do
    t.m.Machine.raw_write (t.area.home_base + i) (t.m.Machine.raw_read (t.area.work_base + i))
  done;
  Memsim.Dirty.clear t.dirty;
  Bytes.fill t.logical 0 (Bytes.length t.logical) '\000';
  t.logical_words <- 0

let make ~sim ~region ~inject ~profiler (area : Pmem.Snapshot.area) =
  let words = area.words in
  {
    m = Pmem.Region.machine region;
    region;
    inject;
    profiler;
    dirty = Memsim.Sim.track_dirty sim ~lo:area.work_base ~hi:(area.work_base + words);
    area;
    snap_base = Pmem.Region.snapshot_base region;
    snap_words = Pmem.Region.snapshot_words region;
    logical = Bytes.make ((words + 7) / 8) '\000';
    logical_words = 0;
    seq = 1;
    lines_buf = Array.make 64 0;
    stats = Stats.create ();
  }

let create ?(granularity = Line) ?inject ?profiler ~words sim =
  if words <= 0 then invalid_arg "Fams.create: words must be positive";
  let region =
    Pmem.Region.create ~roots:fams_roots ~log_words_per_thread:fams_log_words
      ~max_threads:fams_max_threads
      ~snapshot_words:(Pmem.Snapshot.size_for ~words)
      (Memsim.Sim.machine sim)
  in
  make ~sim ~region ~inject ~profiler
    (Pmem.Snapshot.format region ~words ~unit_words:(unit_words granularity))

(* ---------- msync ---------- *)

let ensure_lines_buf t n =
  if n > Array.length t.lines_buf then t.lines_buf <- Array.make (2 * n) 0

let fams_sfence t phase =
  t.stats.Stats.fences <- t.stats.Stats.fences + 1;
  match t.profiler with
  | Some p -> Profile.leaf_fence p phase (fun () -> t.m.Machine.sfence ())
  | None -> t.m.Machine.sfence ()

let fams_clwb_lines t phase ~first_line ~nlines =
  if nlines > 0 then begin
    ensure_lines_buf t nlines;
    for i = 0 to nlines - 1 do
      t.lines_buf.(i) <- Layout.addr_of_line (first_line + i)
    done;
    t.stats.Stats.flushes <- t.stats.Stats.flushes + nlines;
    match t.profiler with
    | Some p ->
      Profile.leaf_flush p phase ~flushes:nlines (fun () ->
          t.m.Machine.clwb_many t.lines_buf nlines)
    | None -> t.m.Machine.clwb_many t.lines_buf nlines
  end

(* Journal one unit: [work-relative addr][unit content], reading the
   working area (L3-hot) and storing into the snapshot log.  Returns
   the next free journal position. *)
let journal_unit t ~jpos ~unit_base ~uwords =
  if jpos + 1 + uwords > t.snap_base + t.snap_words then
    failwith "Fams.msync_atomic: journal overflow (snapshot area undersized)";
  let m = t.m in
  m.Machine.store jpos (unit_base - t.area.work_base);
  let len = min uwords (t.area.words - (unit_base - t.area.work_base)) in
  for k = 0 to len - 1 do
    m.Machine.store (jpos + 1 + k) (m.Machine.load (unit_base + k))
  done;
  (* Units at the tail of a non-page-multiple area journal full width;
     pad with zeros so replay length is uniform. *)
  for k = len to uwords - 1 do
    m.Machine.store (jpos + 1 + k) 0
  done;
  jpos + 1 + uwords

let with_opt_phase t phase f =
  match t.profiler with Some p -> Profile.with_phase p phase f | None -> f ()

let msync_atomic t =
  (match t.profiler with Some p -> Profile.txn_begin p | None -> ());
  let uwords = t.area.unit_words in
  let jbase = t.snap_base + Pmem.Snapshot.journal_off in
  let dirty_units = ref 0 in
  (* --- sweep: journal the dirty set --- *)
  let jend =
    with_opt_phase t Profile.Snap_sweep (fun () ->
        let jpos = ref jbase in
        (match granularity t with
        | Page ->
          Memsim.Dirty.iter_dirty_pages t.dirty (fun page_base ->
              incr dirty_units;
              jpos := journal_unit t ~jpos:!jpos ~unit_base:page_base ~uwords)
        | Line ->
          Memsim.Dirty.iter_dirty_pages t.dirty (fun page_base ->
              Memsim.Dirty.iter_dirty_lines_of_page t.dirty page_base (fun line_base ->
                  incr dirty_units;
                  jpos := journal_unit t ~jpos:!jpos ~unit_base:line_base ~uwords)));
        !jpos)
  in
  if !dirty_units > 0 then begin
    let n = !dirty_units in
    (* Flush the journal and drain it before the commit record can go
       durable.  [Torn_journal_entry] leaves the last entry's tail
       lines unflushed; [Skip_publish_fence] drops the drain fence. *)
    let first_line = Layout.line_of_addr jbase in
    let last_line = Layout.line_of_addr (jend - 1) in
    let flush_journal phase =
      let flush_last_line =
        match t.inject with
        | Some Torn_journal_entry -> Layout.line_of_addr (jend - 1 - uwords)
        | _ -> last_line
      in
      if t.m.Machine.needs_flush then
        fams_clwb_lines t phase ~first_line ~nlines:(flush_last_line - first_line + 1)
    in
    (match t.inject with
    | Some Skip_publish_fence ->
      (* Without the drain fence, journal write-backs are unordered
         relative to the commit record's; modeled by issuing the
         record's clwb first — the simulator's per-channel FIFO would
         otherwise mask the hazard for one contiguous clwb batch. *)
      ()
    | _ ->
      flush_journal Profile.Snap_sweep;
      if t.m.Machine.needs_fence then fams_sfence t Profile.Snap_sweep);
    (* --- publish: one-line commit record, atomic under every domain --- *)
    with_opt_phase t Profile.Snap_publish (fun () ->
        t.m.Machine.store (t.snap_base + Pmem.Snapshot.count) n;
        t.m.Machine.store (t.snap_base + Pmem.Snapshot.dwords) uwords;
        t.m.Machine.store (t.snap_base + Pmem.Snapshot.seq) t.seq);
    t.seq <- t.seq + 1;
    if t.m.Machine.needs_flush then
      fams_clwb_lines t Profile.Snap_publish ~first_line:(Layout.line_of_addr t.snap_base)
        ~nlines:1;
    (match t.inject with
    | Some Skip_publish_fence -> flush_journal Profile.Snap_publish
    | _ -> ());
    if t.m.Machine.needs_fence then fams_sfence t Profile.Snap_publish;
    (* --- apply: journal -> home image, then retire the snapshot --- *)
    with_opt_phase t Profile.Snap_apply (fun () ->
        Pmem.Snapshot.iter t.region t.area ~read:t.m.Machine.load n (fun a src ->
            for k = 0 to uwords - 1 do
              t.m.Machine.store (t.area.home_base + a + k) (t.m.Machine.load (src + k))
            done));
    if t.m.Machine.needs_flush then begin
      (* Home units are unit-aligned, so their lines are exactly the
         journaled units' line images shifted into the home area. *)
      let flushed = ref 0 in
      let nlines_per_unit = (uwords + Layout.words_per_line - 1) / Layout.words_per_line in
      ensure_lines_buf t (n * nlines_per_unit);
      Pmem.Snapshot.iter t.region t.area ~read:t.m.Machine.raw_read n (fun a _ ->
          let first = Layout.line_of_addr (t.area.home_base + a) in
          for l = 0 to nlines_per_unit - 1 do
            t.lines_buf.(!flushed) <- Layout.addr_of_line (first + l);
            incr flushed
          done);
      t.stats.Stats.flushes <- t.stats.Stats.flushes + !flushed;
      (match t.profiler with
      | Some p ->
        Profile.leaf_flush p Profile.Snap_apply ~flushes:!flushed (fun () ->
            t.m.Machine.clwb_many t.lines_buf !flushed)
      | None -> t.m.Machine.clwb_many t.lines_buf !flushed)
    end;
    if t.m.Machine.needs_fence then fams_sfence t Profile.Snap_apply;
    with_opt_phase t Profile.Snap_apply (fun () ->
        t.m.Machine.store (t.snap_base + Pmem.Snapshot.seq) 0);
    if t.m.Machine.needs_flush then
      fams_clwb_lines t Profile.Snap_apply ~first_line:(Layout.line_of_addr t.snap_base)
        ~nlines:1;
    if t.m.Machine.needs_fence then fams_sfence t Profile.Snap_apply;
    (* --- bookkeeping --- *)
    t.stats.Stats.journal_entries <- t.stats.Stats.journal_entries + n;
    t.stats.Stats.bytes_journaled <-
      t.stats.Stats.bytes_journaled + (n * (1 + uwords) * Layout.bytes_per_word);
    let jwords = jend - jbase in
    if jwords > t.stats.Stats.max_journal_words then t.stats.Stats.max_journal_words <- jwords
  end;
  t.stats.Stats.bytes_dirtied <-
    t.stats.Stats.bytes_dirtied + (t.logical_words * Layout.bytes_per_word);
  t.stats.Stats.syncs <- t.stats.Stats.syncs + 1;
  Memsim.Dirty.clear t.dirty;
  Bytes.fill t.logical 0 (Bytes.length t.logical) '\000';
  t.logical_words <- 0;
  match t.profiler with Some p -> Profile.txn_end p ~committed:true | None -> ()

(* ---------- recovery ---------- *)

let recover ?inject ?profiler sim =
  let m = Memsim.Sim.machine sim in
  let region = Pmem.Region.attach m in
  let a = Pmem.Snapshot.decode region in
  (match Pmem.Snapshot.committed region a with
  | None -> ()
  | Some n ->
    (* Committed, unretired snapshot: replay the journal onto the home
       image.  Entries carry absolute content, so replay after a crash
       mid-apply is idempotent.  Structural damage under a committed
       sequence number means the journal was published without being
       durable first: the decoder raises it as corruption rather than
       guessing. *)
    Pmem.Snapshot.iter region a ~read:m.Machine.raw_read n (fun unit src ->
        for k = 0 to a.unit_words - 1 do
          if unit + k < a.words then
            m.Machine.raw_write (a.home_base + unit + k) (m.Machine.raw_read (src + k))
        done);
    m.Machine.raw_write (Pmem.Region.snapshot_base region + Pmem.Snapshot.seq) 0);
  (* Rebuild the working mapping from the home image — pre-crash
     un-synced stores vanish, exactly the msync contract. *)
  for i = 0 to a.words - 1 do
    m.Machine.raw_write (a.work_base + i) (m.Machine.raw_read (a.home_base + i))
  done;
  make ~sim ~region ~inject ~profiler a
