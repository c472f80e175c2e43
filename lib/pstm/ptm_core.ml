(* The transaction core every commit protocol shares: the runtime and
   transaction records, orecs and the global clock, flush/fence
   helpers, TL2-style reads and validation, the write-set flush sweep
   and the commit bookkeeping.  [Redo_alg], [Undo_alg], [Htm_alg] and
   [Mod_alg] implement {!ALGORITHM} on top of it.

   The default build compiles without -opaque (the root dune-workspace
   selects dune's release profile), so ocamlopt inlines across
   compilation units: the orec word helpers here, and the [@inline]
   fast paths of [Int_vec], [Int_table], [Sched] and [Pheap] that
   every transactional read and write runs. *)

module Layout = Machine.Layout
module Meta = Machine.Meta_layout
module Int_vec = Repro_util.Int_vec
module Int_table = Repro_util.Int_table

type algorithm = Redo | Undo | Htm | Mod

type flush_timing = At_commit | Incremental

(* Deliberate ordering bugs for mutation-testing the crash oracles
   (documented in ptm.mli). *)
type inject = Skip_fence | Reorder_log_apply | Tear_write

exception Log_overflow

(* Conflict signal; never escapes [atomic]. *)
exception Conflict

module Recovery_report = struct
  type t = {
    logs_scanned : int;
    words_scanned : int;
    entries_replayed : int;
    entries_rolled_back : int;
  }
end

type thread_stats = {
  mutable commits : int;
  mutable aborts : int;
  mutable read_only_commits : int;
  mutable max_write_set : int;
  mutable max_log_lines : int;
}

type tx = {
  ptm : t;
  tid : int;
  rng : Repro_util.Rng.t;
  mutable depth : int;
  (* Serial (irrevocable) transaction: the machine was exclusive at the
     top-level begin, so no concurrency control runs (see [read_shared]
     and the orec ownership helpers). *)
  mutable serial : bool;
  mutable rv : int;
  mutable attempts : int;
  (* Write-set index, addr -> entry index in [vaddrs]/[vvals]: redo's
     volatile "DRAM half" of the split log, and the HTM/MOD write
     buffer.  Undo: addr -> 0 marker of already-logged words. *)
  wmap : Int_table.t;
  vaddrs : Int_vec.t; (* redo/HTM/MOD: addr per entry *)
  vvals : Int_vec.t; (* redo/HTM/MOD: volatile copy of the latest value *)
  uvec : Int_vec.t; (* undo: (addr, old) pairs in append order *)
  reads : Int_vec.t; (* (oidx, observed version) pairs; empty when serial *)
  mutable shared_reads : int; (* [read_shared] calls this attempt (HTM capacity) *)
  pair : int array; (* [Machine.validated_load]'s orec word and value *)
  acquired : Int_vec.t; (* oidxs I hold locked; serial: oidxs to publish wv to *)
  amap : Int_table.t; (* oidx -> version before I locked it *)
  flushed : Int_table.t; (* line dedup for bulk flushes (set) *)
  mutable lscratch : int array; (* line addresses for vectored sweeps *)
  mutable commit_hooks : (unit -> unit) list;
  mutable abort_hooks : (unit -> unit) list;
  mutable log_flushed_upto : int; (* Incremental policy: first unflushed line *)
  mutable mode : algorithm; (* effective algorithm for this attempt (HTM and MOD fall back) *)
  wlines : Int_table.t; (* HTM: distinct written lines (capacity model; set) *)
  (* MOD: [lo, hi) word ranges allocated by this transaction — writes
     inside them are shadow-class (unreachable until the root swap). *)
  fresh : Int_vec.t;
  mutable pub_addr : int; (* MOD: the single home-location word, -1 = none *)
  mutable in_alloc : bool; (* MOD: inside the allocator (header writes are shadow) *)
}

(* The backoff RNG streams are per-PTM-instance: independent
   simulations share no mutable state, so the parallel experiment
   runner can execute them on separate domains without cross-sim
   interference. *)
and t = {
  m : Machine.t;
  reg : Pmem.Region.t;
  allocator : Pmem.Alloc.t;
  alg : algorithm;
  flush_timing : flush_timing;
  coalesce : bool; (* flush coalescing + commit pipelining (off = naive per-entry) *)
  orec_mask : int;
  log_capacity : int; (* max entries per transaction *)
  txs : tx option array;
  stats : thread_stats array;
  rng_seed : int; (* base of the per-thread backoff RNG streams *)
  mutable profiler : Profile.t option; (* observability; never advances clocks *)
  last_recovery : Recovery_report.t option; (* [None] for a freshly created runtime *)
  inject : inject option; (* injected ordering bug (mutation testing only) *)
}

(* What each commit protocol provides.  [try_commit] runs only for a
   transaction that wrote something; on [false] (validation failed)
   [Ptm] runs [abort], which also undoes an attempt interrupted by a
   conflict or a user exception. *)
module type ALGORITHM = sig
  val read : tx -> int -> int
  val write : tx -> int -> int -> unit
  val try_commit : tx -> bool
  val abort : tx -> unit
end

(* ---------- orecs and the global clock ---------- *)

let orec_of t addr =
  let h = addr * 0x2545F4914F6CDD1D in
  let h = h lxor (h lsr 29) in
  h land t.orec_mask

let orec_get t oidx = t.m.Machine.meta_get (Meta.orec_base + oidx)
let orec_set t oidx v = t.m.Machine.meta_set (Meta.orec_base + oidx) v
let orec_cas t oidx expected v = t.m.Machine.meta_cas (Meta.orec_base + oidx) expected v

let clock_read t = t.m.Machine.meta_get Meta.clock_idx
let clock_next t = t.m.Machine.meta_fetch_add Meta.clock_idx 1 + 1

let locked v = v land 1 = 1
let version_of v = v asr 1
let lock_word tid = (tid lsl 1) lor 1
let version_word ts = ts lsl 1
let locked_by v tid = v = lock_word tid

(* ---------- flush/fence helpers (durability-domain aware) ---------- *)

(* Profiling never wraps hot-path work in a shared closure-taking
   helper: every site matches on [t.profiler] explicitly, so the
   disabled case is one branch with no closure or option allocation. *)

(* A single clwb, with its slice split into issue cost vs WPQ stall
   when profiling.  Callers have already checked [needs_flush]. *)
let clwb1 t addr =
  match t.profiler with
  | None -> t.m.Machine.clwb addr
  | Some p -> Profile.leaf_flush p Profile.Clwb_issue ~flushes:1 (fun () -> t.m.Machine.clwb addr)

let flush t addr = if t.m.Machine.needs_flush then clwb1 t addr

let fence t =
  if t.m.Machine.needs_fence && t.inject <> Some Skip_fence then
    match t.profiler with
    | None -> t.m.Machine.sfence ()
    | Some p -> Profile.leaf_fence p Profile.Fence_wait (fun () -> t.m.Machine.sfence ())

(* ---------- per-thread log (format: Pmem.Log) ---------- *)

let[@inline] log_base tx = Pmem.Region.log_base tx.ptm.reg ~tid:tx.tid
let[@inline] log_entry tx i = Pmem.Log.entry ~base:(log_base tx) i

let write_status tx status =
  let t = tx.ptm in
  let base = log_base tx in
  (match t.profiler with
  | None -> t.m.Machine.store base status
  | Some p -> Profile.with_phase p Profile.Log_append (fun () -> t.m.Machine.store base status));
  flush t base;
  fence t

(* ---------- orec ownership ---------- *)

(* Lookup sentinel for the per-transaction tables: they only ever hold
   entry indices and unlocked version words, both >= 0. *)
let absent = -1

(* Release every orec I hold, restoring pre-lock versions.  A serial
   transaction locked nothing, and its [amap] is empty. *)
let release_acquired_to_previous tx =
  if not tx.serial then
    Int_vec.iter
      (fun oidx -> orec_set tx.ptm oidx (Int_table.find tx.amap oidx ~absent))
      tx.acquired

let release_acquired_to tx version_word_value =
  Int_vec.iter (fun oidx -> orec_set tx.ptm oidx version_word_value) tx.acquired

let owned_by_me tx addr =
  let t = tx.ptm in
  locked_by (orec_get t (orec_of t addr)) tx.tid

(* Read-set validation at commit: every orec still shows the version we
   read, or is locked by us and showed that version before locking. *)
let validate_reads tx =
  let t = tx.ptm in
  let n = Int_vec.length tx.reads in
  let rec go i =
    if i >= n then true
    else begin
      let oidx = Int_vec.get tx.reads i in
      let seen = Int_vec.get tx.reads (i + 1) in
      let cur = orec_get t oidx in
      if cur = seen then go (i + 2)
      else if locked_by cur tx.tid then
        (* [seen] is unlocked, so it never equals [absent]. *)
        Int_table.find tx.amap oidx ~absent = seen && go (i + 2)
      else false
    end
  in
  go 0

(* Timestamp extension (one of the optimizations the paper's PTMs
   enable): when a version newer than [rv] is met, revalidate the read
   set against the current clock and, if it still holds, slide [rv]
   forward instead of aborting.  Cuts false aborts of long-running
   transactions dramatically. *)
let extend tx =
  let now_v = clock_read tx.ptm in
  if validate_reads tx then begin
    tx.rv <- now_v;
    true
  end
  else false

(* Lock orec [oidx], last seen holding [v]: its pre-lock version goes
   to [amap] for validation and release. *)
let lock_orec tx oidx v =
  if locked v then raise Conflict;
  if version_of v > tx.rv && not (extend tx) then raise Conflict;
  if not (orec_cas tx.ptm oidx v (lock_word tx.tid)) then raise Conflict;
  Int_table.replace tx.amap oidx v;
  Int_vec.push tx.acquired oidx

(* Commit-time acquisition (redo, HTM, MOD): an orec I already hold
   costs no read.  Serial: only note the orec, so the release publishes
   the write version there; an orec noted twice gets the same word
   twice. *)
let acquire_orec tx addr =
  let t = tx.ptm in
  let oidx = orec_of t addr in
  if tx.serial then Int_vec.push tx.acquired oidx
  else if not (Int_table.mem tx.amap oidx) then lock_orec tx oidx (orec_get t oidx)

(* Undo's encounter-time acquisition reads the orec on every write and
   recognises its own lock word there.  Serial: note the orec on the
   first write of [addr] only. *)
let acquire_orec_eager tx addr =
  let t = tx.ptm in
  let oidx = orec_of t addr in
  if tx.serial then begin
    if not (Int_table.mem tx.wmap addr) then Int_vec.push tx.acquired oidx
  end
  else
    let v = orec_get t oidx in
    if not (locked_by v tx.tid) then lock_orec tx oidx v

(* A validated read of orec [oidx] joins the read set. *)
let accept tx oidx =
  Int_vec.push tx.reads oidx;
  Int_vec.push tx.reads (Array.unsafe_get tx.pair 0);
  Array.unsafe_get tx.pair 1

(* Whether the validated load went on past orec word [v] (unlocked and
   current): then only its re-check can have stopped it. *)
let rechecked tx v = (not (locked v)) && version_of v <= tx.rv

(* Orec word [v] is locked, or unlocked but newer than [rv].  Locked
   by me: the word is mine to read.  Newer: extend, then a plain load,
   whose value is the word's at completion, and the re-check.  Under
   redo, HTM and MOD writers the value at issue would read the same
   whenever the re-check holds.  An aborting undo writer restores the
   version along with the word, and after an [extend] it may have
   written before the load issued, so the load waits its latency out. *)
let read_unvalidated tx oidx addr v =
  let t = tx.ptm in
  if locked v then begin
    if locked_by v tx.tid then t.m.Machine.load addr else raise Conflict
  end
  else begin
    if not (extend tx) then raise Conflict;
    let value = t.m.Machine.load addr in
    if orec_get t oidx <> v then raise Conflict;
    Int_vec.push tx.reads oidx;
    Int_vec.push tx.reads v;
    value
  end

(* Bounded politeness: give a committing writer a moment to release
   its orec before declaring a conflict (readers of a commit-locked
   orec would otherwise always abort, which is brutal under ADR's long
   flush-laden commits).  The orec is read again at once, then after
   each of up to [tries] pauses; a read that finds it unlocked and
   current completes there. *)
let rec wait_unlocked tx oidx addr tries =
  let t = tx.ptm in
  if t.m.Machine.validated_load (Meta.orec_base + oidx) (version_word tx.rv) addr tx.pair then
    accept tx oidx
  else begin
    let v = tx.pair.(0) in
    if rechecked tx v then raise Conflict
    else if tries = 0 || not (locked v) then read_unvalidated tx oidx addr v
    else begin
      t.m.Machine.pause 150;
      wait_unlocked tx oidx addr (tries - 1)
    end
  end

(* The validated load stopped at the orec word [tx.pair.(0)]: locked,
   or newer than [rv]; or the re-check saw it change, a conflict. *)
let[@inline never] read_slow tx oidx addr =
  let v = tx.pair.(0) in
  if rechecked tx v then raise Conflict
  else if locked v && not (locked_by v tx.tid) then wait_unlocked tx oidx addr 6
  else read_unvalidated tx oidx addr v

(* TL2-style read of a location not in my write set; a serial
   transaction has nothing to check it against.

   The fast path is one [validated_load]: the orec word, unlocked and
   no newer than [rv], then the load, then the re-check.  Its value is
   the word's at issue, which the re-check vouches for.  A writer that
   locks the orec after the first read changes what the re-check sees,
   except an undo writer that aborts: it restores the version along
   with the word.  But the load issues at the instant the orec read
   unlocked, so no such writer has written yet and the word read is
   the one restored.  Everything else is [read_slow], which keeps the
   operations of the plain read in their order. *)
let read_shared tx addr =
  let t = tx.ptm in
  tx.shared_reads <- tx.shared_reads + 1;
  if tx.serial then t.m.Machine.load addr
  else begin
    let oidx = orec_of t addr in
    if t.m.Machine.validated_load (Meta.orec_base + oidx) (version_word tx.rv) addr tx.pair then
      accept tx oidx
    else read_slow tx oidx addr
  end

(* ---------- the volatile write buffer (redo index, HTM, MOD) ---------- *)

let buffer_append tx addr value =
  Int_table.replace tx.wmap addr (Int_vec.length tx.vaddrs);
  Int_vec.push tx.vaddrs addr;
  Int_vec.push tx.vvals value

(* Overwrite an already-buffered word; [false] when [addr] is new. *)
let buffer_overwrite tx addr value =
  let idx = Int_table.find tx.wmap addr ~absent in
  if idx <> absent then Int_vec.set tx.vvals idx value;
  idx <> absent

(* Read-own-write from the buffer, else a shared read. *)
let buffered_read tx addr =
  let idx = Int_table.find tx.wmap addr ~absent in
  if idx <> absent then Int_vec.get tx.vvals idx else read_shared tx addr

(* ---------- commit steps ---------- *)

(* Tick the clock for this commit's write version; -1 when the read
   set no longer validates. *)
let commit_version tx =
  let wv = clock_next tx.ptm in
  if validate_reads tx then wv else -1

(* Lock every orec covering the buffered write set, then take a write
   version (redo and HTM). *)
let acquire_write_set tx =
  Int_vec.iter (fun addr -> acquire_orec tx addr) tx.vaddrs;
  commit_version tx

(* The commit's validation step [f] (charged to [Validate] when
   profiling): its write version, or -1 when validation failed or hit
   a conflict.  Callers pass a top-level [f], so the unprofiled path
   allocates nothing. *)
let validated tx f =
  try
    match tx.ptm.profiler with
    | None -> f tx
    | Some p -> Profile.with_phase p Profile.Validate (fun () -> f tx)
  with Conflict -> -1

let ensure_scratch tx k =
  let len = Array.length tx.lscratch in
  if len < k then begin
    (* Growth must preserve contents: [gather_lines] grows mid-sweep,
       and dropping the already-gathered lines would leave them dirty
       in cache forever — a silent durability hole. *)
    let fresh = Array.make (max k ((2 * len) + 8)) 0 in
    Array.blit tx.lscratch 0 fresh 0 len;
    tx.lscratch <- fresh
  end

(* Collect the distinct cache lines of a write set into [tx.lscratch]
   in first-touch order (deterministic sweeps); returns the count. *)
let gather_lines tx iter_addrs =
  Int_table.clear tx.flushed;
  let k = ref 0 in
  iter_addrs (fun addr ->
      let line = Layout.line_of_addr addr in
      if not (Int_table.mem tx.flushed line) then begin
        Int_table.replace tx.flushed line 0;
        ensure_scratch tx (!k + 1);
        tx.lscratch.(!k) <- Layout.addr_of_line line;
        incr k
      end);
  !k

(* Vectored flush of the first [n] line-distinct addresses: one
   coalesced issue instant, so the lines' WPQ drains overlap instead of
   serializing behind each clwb's issue latency — the commit pipeline.
   Charged to the [Coalesce] phase when profiling. *)
let clwb_batch t addrs n =
  if n > 0 then
    match t.profiler with
    | None -> t.m.Machine.clwb_many addrs n
    | Some p -> Profile.leaf_flush p Profile.Coalesce ~flushes:n (fun () -> t.m.Machine.clwb_many addrs n)

(* Make a write set's data lines durable.  Coalesced: one vectored
   sweep over the deduplicated dirty lines ordered by a single fence.
   Naive: a clwb and its own fence per written word, no dedup — the
   per-entry ordering an unoptimized PTM pays.  Returns the number of
   clwbs issued (savings ledger). *)
let flush_written_lines tx iter_addrs =
  let t = tx.ptm in
  if not t.m.Machine.needs_flush then begin
    fence t;
    0
  end
  else if t.coalesce then begin
    let k = gather_lines tx iter_addrs in
    (* Injected torn write: the sweep silently drops its last gathered
       line, leaving that committed line volatile in cache. *)
    let k = match t.inject with Some Tear_write when k > 1 -> k - 1 | _ -> k in
    clwb_batch t tx.lscratch k;
    fence t;
    k
  end
  else begin
    let issued = ref 0 in
    iter_addrs (fun addr ->
        incr issued;
        clwb1 t addr;
        fence t);
    !issued
  end

(* ---------- commit bookkeeping ---------- *)

(* Savings ledger: what the coalesced commit issued ([flushes] clwbs,
   [fences] sfences) against the [naive] clwb+fence pairs of the
   per-entry discipline. *)
let note_savings tx ~naive ~flushes ~fences =
  let t = tx.ptm in
  match t.profiler with
  | Some p when t.coalesce && t.m.Machine.needs_flush ->
    Profile.note_saved p
      ~fences:(if t.m.Machine.needs_fence then max 0 (naive - fences) else 0)
      ~flushes:(max 0 (naive - flushes))
  | _ -> ()

let commit_read_only tx =
  let s = tx.ptm.stats.(tx.tid) in
  s.commits <- s.commits + 1;
  s.read_only_commits <- s.read_only_commits + 1;
  true

(* A writer committed [n] distinct words; [logged] protocols (redo,
   undo) also record their persistent log footprint in lines. *)
let note_commit tx n ~logged =
  let s = tx.ptm.stats.(tx.tid) in
  s.commits <- s.commits + 1;
  s.max_write_set <- max s.max_write_set n;
  if logged then s.max_log_lines <- max s.max_log_lines (Pmem.Log.lines n)
