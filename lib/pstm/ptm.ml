module Layout = Machine.Layout
module Meta = Machine.Meta_layout

type algorithm = Redo | Undo | Htm | Mod

let algorithm_name = function Redo -> "redo" | Undo -> "undo" | Htm -> "htm" | Mod -> "mod"

type flush_timing = At_commit | Incremental

(* Deliberate ordering bugs, injectable for mutation-testing the crash
   oracles (a checker that never fails is untested).  Each one models a
   classic PTM implementation mistake:
   - [Skip_fence]: every sfence is elided — write-backs race in the WPQ
     with nothing ordering them (Table III's broken variant, but
     injected into a correct build).
   - [Reorder_log_apply]: the durable commit status is raised before
     the log entries are persistent (redo), and undo entries are armed
     without their own write-back/fence — recovery can apply a stale
     log, or fail to roll back an in-place store that beat its entry to
     media.
   - [Tear_write]: the coalesced data write-back sweep drops its last
     gathered line, leaving one committed line volatile. *)
type inject = Skip_fence | Reorder_log_apply | Tear_write

let inject_name = function
  | Skip_fence -> "skip-fence"
  | Reorder_log_apply -> "reorder-log-apply"
  | Tear_write -> "tear-write"

let inject_of_name = function
  | "skip-fence" -> Some Skip_fence
  | "reorder-log-apply" -> Some Reorder_log_apply
  | "tear-write" -> Some Tear_write
  | _ -> None

exception Log_overflow

(* Conflict signal; never escapes [atomic]. *)
exception Conflict

(* What one pass of crash recovery actually did — the input of modeled
   recovery-time estimates (the recovery pass itself runs on raw,
   untimed machine ops, so it advances no virtual clock). *)
module Recovery_report = struct
  type t = {
    logs_scanned : int;
    words_scanned : int;
    entries_replayed : int;
    entries_rolled_back : int;
  }
end

(* The conflict hook and backoff RNG streams are per-PTM-instance (see
   the [t] fields below): independent simulations share no mutable
   state, so the parallel experiment runner can execute them on
   separate domains without cross-sim interference. *)

(* Log status words (per-thread, first word of the log area).
   Entries are (addr, value) pairs starting at log_base+2, terminated
   by a zero addr sentinel, so recovery never needs a separate count. *)
let status_idle = 0
let status_redo_committed = 1
let status_undo_active = 2

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
  mutable rv : int;
  mutable attempts : int;
  (* Redo: write-set index (volatile, the "DRAM half" of the split log):
     addr -> entry index.  Undo: addr -> 0 marker of already-logged words. *)
  wmap : Repro_util.Int_table.t;
  vaddrs : Repro_util.Int_vec.t; (* redo: addr per entry *)
  vvals : Repro_util.Int_vec.t; (* redo: volatile copy of the latest value *)
  uvec : Repro_util.Int_vec.t; (* undo: (addr, old) pairs in append order *)
  reads : Repro_util.Int_vec.t; (* (oidx, observed version) pairs *)
  acquired : Repro_util.Int_vec.t; (* oidxs I hold locked *)
  amap : Repro_util.Int_table.t; (* oidx -> version before I locked it *)
  flushed : Repro_util.Int_table.t; (* line dedup for bulk flushes (set) *)
  mutable lscratch : int array; (* line addresses for vectored sweeps *)
  mutable commit_hooks : (unit -> unit) list;
  mutable abort_hooks : (unit -> unit) list;
  mutable undo_status_written : bool;
  mutable log_flushed_upto : int; (* Incremental policy: first unflushed line *)
  mutable mode : algorithm; (* effective algorithm for this attempt (HTM falls back) *)
  wlines : Repro_util.Int_table.t; (* HTM: distinct written lines (capacity model; set) *)
  (* MOD: [lo, hi) word ranges allocated by this transaction — writes
     inside them are shadow-class (unreachable until the root swap). *)
  fresh : Repro_util.Int_vec.t;
  mutable pub_addr : int; (* MOD: the single home-location word, -1 = none *)
  mutable in_alloc : bool; (* MOD: inside the allocator (header writes are shadow) *)
}

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
  (* Diagnostics: invoked on every conflict with the site and the heap
     address (or orec index, site-dependent) involved. *)
  mutable conflict_hook : (string -> int -> unit) option;
  (* Set by [recover]; [None] for a freshly created runtime. *)
  mutable last_recovery : Recovery_report.t option;
  (* Injected ordering bug (mutation testing only); [None] in real use. *)
  mutable inject : inject option;
}

let set_inject t i = t.inject <- i

let set_conflict_hook t f = t.conflict_hook <- f

let conflict tx site addr =
  (match tx.ptm.conflict_hook with Some f -> f site addr | None -> ());
  raise Conflict

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
  | Some p -> Profile.leaf_flush p ~flushes:1 (fun () -> t.m.Machine.clwb addr)

let flush t addr = if t.m.Machine.needs_flush then clwb1 t addr

let fence t =
  if t.m.Machine.needs_fence && t.inject <> Some Skip_fence then
    match t.profiler with
    | None -> t.m.Machine.sfence ()
    | Some p -> Profile.leaf_fence p (fun () -> t.m.Machine.sfence ())

(* Flush every line in [lo, hi] (inclusive word addresses). *)
let flush_range t lo hi =
  if t.m.Machine.needs_flush then begin
    let first = Layout.line_of_addr lo in
    let last = Layout.line_of_addr hi in
    match t.profiler with
    | None ->
      for line = first to last do
        t.m.Machine.clwb (Layout.addr_of_line line)
      done
    | Some p ->
      Profile.leaf_flush p ~flushes:(last - first + 1) (fun () ->
          for line = first to last do
            t.m.Machine.clwb (Layout.addr_of_line line)
          done)
  end

(* ---------- construction ---------- *)

let fresh_tx t tid =
  {
    ptm = t;
    tid;
    rng = Repro_util.Rng.create (t.rng_seed + tid);
    depth = 0;
    rv = 0;
    attempts = 0;
    wmap = Repro_util.Int_table.create 64;
    vaddrs = Repro_util.Int_vec.create ();
    vvals = Repro_util.Int_vec.create ();
    uvec = Repro_util.Int_vec.create ();
    reads = Repro_util.Int_vec.create ~capacity:64 ();
    acquired = Repro_util.Int_vec.create ();
    amap = Repro_util.Int_table.create 16;
    flushed = Repro_util.Int_table.create 64;
    lscratch = Array.make 16 0;
    commit_hooks = [];
    abort_hooks = [];
    undo_status_written = false;
    log_flushed_upto = 0;
    mode = t.alg;
    wlines = Repro_util.Int_table.create 64;
    fresh = Repro_util.Int_vec.create ();
    pub_addr = -1;
    in_alloc = false;
  }

let fresh_stats () =
  { commits = 0; aborts = 0; read_only_commits = 0; max_write_set = 0; max_log_lines = 0 }

let default_rng_seed = 0x5EED

let build ~algorithm ~orec_bits ~flush_timing ~coalesce ~rng_seed m reg allocator =
  (* HTM is incompatible with explicit flushes: clwb of a speculative
     line aborts the hardware transaction (the paper's §II point about
     TSX under ADR).  Only eADR-class domains — or an ADR machine whose
     HTM commits are themselves durable (durable_publish) — may run it. *)
  if algorithm = Htm && m.Machine.needs_flush && not m.Machine.durable_publish then
    invalid_arg "Ptm: the HTM algorithm requires an eADR-class durability domain";
  let nthreads = Pmem.Region.max_threads reg in
  let orec_count = 1 lsl orec_bits in
  if Meta.orec_base + orec_count > m.Machine.meta_words then
    invalid_arg "Ptm: orec table does not fit in the metadata space";
  {
    m;
    reg;
    allocator;
    alg = algorithm;
    flush_timing;
    coalesce;
    orec_mask = orec_count - 1;
    log_capacity = (Pmem.Region.log_words_per_thread reg - 3) / 2;
    txs = Array.make nthreads None;
    stats = Array.init nthreads (fun _ -> fresh_stats ());
    rng_seed;
    profiler = None;
    conflict_hook = None;
    last_recovery = None;
    inject = None;
  }

let create ?(algorithm = Redo) ?(orec_bits = 20) ?(flush_timing = At_commit) ?(coalesce = true)
    ?(max_threads = 32) ?(log_words_per_thread = 8192) ?(rng_seed = default_rng_seed) ?inject m =
  if algorithm = Htm && m.Machine.needs_flush && not m.Machine.durable_publish then
    invalid_arg "Ptm: the HTM algorithm requires an eADR-class durability domain";
  let reg = Pmem.Region.create ~max_threads ~log_words_per_thread m in
  let allocator = Pmem.Alloc.create reg in
  (* Log status words must start out durably idle. *)
  for tid = 0 to max_threads - 1 do
    m.Machine.raw_write (Pmem.Region.log_base reg ~tid) status_idle
  done;
  let t = build ~algorithm ~orec_bits ~flush_timing ~coalesce ~rng_seed m reg allocator in
  (match inject with Some _ -> t.inject <- inject | None -> ());
  t

(* ---------- crash recovery ---------- *)

let recover_logs m reg =
  let raw = m.Machine.raw_read and write = m.Machine.raw_write in
  let words_scanned = ref 0 in
  let entries_replayed = ref 0 in
  let entries_rolled_back = ref 0 in
  let nthreads = Pmem.Region.max_threads reg in
  for tid = 0 to nthreads - 1 do
    let base = Pmem.Region.log_base reg ~tid in
    let status = raw base in
    incr words_scanned;
    if status = status_redo_committed then begin
      (* Replay committed-but-possibly-not-written-back values. *)
      let pos = ref (base + 2) in
      while raw !pos <> 0 do
        write (raw !pos) (raw (!pos + 1));
        words_scanned := !words_scanned + 2;
        incr entries_replayed;
        pos := !pos + 2
      done;
      incr words_scanned (* the zero-addr sentinel *)
    end
    else if status = status_undo_active then begin
      (* Roll the in-flight transaction back, newest entry first. *)
      let entries = ref [] in
      let pos = ref (base + 2) in
      while raw !pos <> 0 do
        entries := (raw !pos, raw (!pos + 1)) :: !entries;
        words_scanned := !words_scanned + 2;
        incr entries_rolled_back;
        pos := !pos + 2
      done;
      incr words_scanned;
      List.iter (fun (addr, old) -> write addr old) !entries
    end;
    write base status_idle
  done;
  {
    Recovery_report.logs_scanned = nthreads;
    words_scanned = !words_scanned;
    entries_replayed = !entries_replayed;
    entries_rolled_back = !entries_rolled_back;
  }

let recover ?(algorithm = Redo) ?(orec_bits = 20) ?(flush_timing = At_commit) ?(coalesce = true)
    ?(rng_seed = default_rng_seed) ?profiler ?inject m =
  let reg = Pmem.Region.attach m in
  let report =
    match profiler with
    | None -> recover_logs m reg
    | Some p -> Profile.with_phase p Profile.Recovery (fun () -> recover_logs m reg)
  in
  let allocator = Pmem.Alloc.recover reg in
  let t = build ~algorithm ~orec_bits ~flush_timing ~coalesce ~rng_seed m reg allocator in
  t.profiler <- profiler;
  t.last_recovery <- Some report;
  (match inject with Some _ -> t.inject <- inject | None -> ());
  t

let region t = t.reg
let machine t = t.m
let algorithm t = t.alg
let coalescing t = t.coalesce
let allocator t = t.allocator
let set_profiler t p = t.profiler <- p
let profiler t = t.profiler
let last_recovery t = t.last_recovery

let root_get t i = Pmem.Region.root_get t.reg i
let root_set t i v = Pmem.Region.root_set t.reg i v

let clock t = clock_read t

(* Smallest read-version among transactions currently executing — the
   reclamation horizon for MOD's epoch free-lists.  A node retired when
   the clock read [wv] can only be referenced by a transaction whose
   snapshot predates the root swap, i.e. one with [rv < wv]; once every
   in-flight transaction has [rv >= wv] the node is unreachable. *)
let min_active_rv t =
  let m = ref max_int in
  Array.iter
    (function Some tx when tx.depth > 0 -> if tx.rv < !m then m := tx.rv | _ -> ())
    t.txs;
  !m

(* ---------- shared transaction machinery ---------- *)

let tx_for t =
  let tid = t.m.Machine.tid () in
  match t.txs.(tid) with
  | Some tx -> tx
  | None ->
    let tx = fresh_tx t tid in
    t.txs.(tid) <- Some tx;
    tx

let log_base tx = Pmem.Region.log_base tx.ptm.reg ~tid:tx.tid

let reset_tx tx =
  Repro_util.Int_table.clear tx.wmap;
  Repro_util.Int_vec.clear tx.vaddrs;
  Repro_util.Int_vec.clear tx.vvals;
  Repro_util.Int_vec.clear tx.uvec;
  Repro_util.Int_vec.clear tx.reads;
  Repro_util.Int_vec.clear tx.acquired;
  Repro_util.Int_table.clear tx.amap;
  Repro_util.Int_table.clear tx.flushed;
  tx.commit_hooks <- [];
  tx.abort_hooks <- [];
  tx.undo_status_written <- false;
  tx.log_flushed_upto <- Layout.line_of_addr (log_base tx + 2);
  Repro_util.Int_table.clear tx.wlines;
  Repro_util.Int_vec.clear tx.fresh;
  tx.pub_addr <- -1;
  tx.in_alloc <- false

(* Lookup sentinel for the per-transaction tables: they only ever hold
   entry indices and unlocked version words, both >= 0. *)
let absent = -1

(* Release every orec I hold, restoring pre-lock versions. *)
let release_acquired_to_previous tx =
  Repro_util.Int_vec.iter
    (fun oidx -> orec_set tx.ptm oidx (Repro_util.Int_table.find tx.amap oidx ~absent))
    tx.acquired

let release_acquired_to tx version_word_value =
  Repro_util.Int_vec.iter (fun oidx -> orec_set tx.ptm oidx version_word_value) tx.acquired

(* Read-set validation at commit: every orec still shows the version we
   read, or is locked by us and showed that version before locking. *)
let validate_reads tx =
  let t = tx.ptm in
  let n = Repro_util.Int_vec.length tx.reads in
  let rec go i =
    if i >= n then true
    else begin
      let oidx = Repro_util.Int_vec.get tx.reads i in
      let seen = Repro_util.Int_vec.get tx.reads (i + 1) in
      let cur = orec_get t oidx in
      if cur = seen then go (i + 2)
      else if locked_by cur tx.tid then
        (* [seen] is unlocked, so it never equals [absent]. *)
        Repro_util.Int_table.find tx.amap oidx ~absent = seen && go (i + 2)
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

(* Bounded politeness: give a committing writer a moment to release
   its orec before declaring a conflict (readers of a commit-locked
   orec would otherwise always abort, which is brutal under ADR's long
   flush-laden commits). *)
let wait_unlocked tx oidx =
  let t = tx.ptm in
  let rec go tries v =
    if not (locked v) then v
    else if tries = 0 then v
    else begin
      t.m.Machine.pause 150;
      go (tries - 1) (orec_get t oidx)
    end
  in
  go 6 (orec_get t oidx)

(* TL2-style read of a location not in my write set. *)
let read_shared tx addr =
  let t = tx.ptm in
  let oidx = orec_of t addr in
  let v1 = orec_get t oidx in
  let v1 = if locked v1 && not (locked_by v1 tx.tid) then wait_unlocked tx oidx else v1 in
  if locked v1 then begin
    if locked_by v1 tx.tid then t.m.Machine.load addr
    else conflict tx "read-locked" addr
  end
  else begin
    if version_of v1 > tx.rv && not (extend tx) then conflict tx "read-stale" addr;
    let value = t.m.Machine.load addr in
    let v2 = orec_get t oidx in
    if v2 <> v1 then conflict tx "read-race" addr;
    Repro_util.Int_vec.push tx.reads oidx;
    Repro_util.Int_vec.push tx.reads v1;
    value
  end

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
  Repro_util.Int_table.clear tx.flushed;
  let k = ref 0 in
  iter_addrs (fun addr ->
      let line = Layout.line_of_addr addr in
      if not (Repro_util.Int_table.mem tx.flushed line) then begin
        Repro_util.Int_table.replace tx.flushed line 0;
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
    | Some p -> Profile.leaf_coalesce p ~flushes:n (fun () -> t.m.Machine.clwb_many addrs n)

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

let write_status tx status =
  let t = tx.ptm in
  let base = log_base tx in
  (match t.profiler with
  | None -> t.m.Machine.store base status
  | Some p -> Profile.with_phase p Profile.Log_append (fun () -> t.m.Machine.store base status));
  flush t base;
  fence t

(* ---------- redo (orec-lazy) ---------- *)

(* Write-set lookups run on every transactional op: [Int_table.find]
   returns the [absent] sentinel on a miss, so neither path raises or
   boxes.  A read-only prefix (the common case) skips the probe. *)
let redo_read tx addr =
  if Repro_util.Int_table.length tx.wmap = 0 then read_shared tx addr
  else
    let idx = Repro_util.Int_table.find tx.wmap addr ~absent in
    if idx = absent then read_shared tx addr
    else begin
      (* Read-own-write: the index lives in DRAM, the value in the
         persistent log — model the log lookup as a real load. *)
      ignore (tx.ptm.m.Machine.load (log_base tx + 2 + (2 * idx) + 1));
      Repro_util.Int_vec.get tx.vvals idx
    end

let redo_write tx addr value =
  assert (addr > 0);
  let t = tx.ptm in
  let idx = Repro_util.Int_table.find tx.wmap addr ~absent in
  if idx <> absent then begin
    (* Update the log entry in place (hash-table log, §I). *)
    Repro_util.Int_vec.set tx.vvals idx value;
    t.m.Machine.store (log_base tx + 2 + (2 * idx) + 1) value
  end
  else begin
    let idx = Repro_util.Int_vec.length tx.vaddrs in
    if idx >= t.log_capacity then raise Log_overflow;
    Repro_util.Int_table.replace tx.wmap addr idx;
    Repro_util.Int_vec.push tx.vaddrs addr;
    Repro_util.Int_vec.push tx.vvals value;
    let pos = log_base tx + 2 + (2 * idx) in
    t.m.Machine.store pos addr;
    t.m.Machine.store (pos + 1) value;
    t.m.Machine.store (pos + 2) 0 (* sentinel *);
    if t.flush_timing = Incremental && t.m.Machine.needs_flush then begin
      (* Flush lines the log head has moved past. *)
      let head_line = Layout.line_of_addr (pos + 1) in
      while tx.log_flushed_upto < head_line do
        clwb1 t (Layout.addr_of_line tx.log_flushed_upto);
        tx.log_flushed_upto <- tx.log_flushed_upto + 1
      done
    end
  end

(* Commit-time acquisition of every orec covering the write set, then
   read-set validation.  Returns the write version, or -1 when
   validation failed (conflicts raise). *)
let redo_acquire_validate tx =
  let t = tx.ptm in
  Repro_util.Int_vec.iter
    (fun addr ->
      let oidx = orec_of t addr in
      if not (Repro_util.Int_table.mem tx.amap oidx) then begin
        let v = orec_get t oidx in
        if locked v then conflict tx "acquire-locked" addr;
        if version_of v > tx.rv && not (extend tx) then conflict tx "acquire-stale" addr;
        if not (orec_cas t oidx v (lock_word tx.tid)) then conflict tx "acquire-cas" addr;
        Repro_util.Int_table.replace tx.amap oidx v;
        Repro_util.Int_vec.push tx.acquired oidx
      end)
    tx.vaddrs;
  let wv = clock_next t in
  if (wv > tx.rv + 1 || Repro_util.Int_vec.length tx.reads > 0) && not (validate_reads tx)
  then -1
  else wv

let redo_write_back tx n =
  let t = tx.ptm in
  for i = 0 to n - 1 do
    t.m.Machine.store (Repro_util.Int_vec.get tx.vaddrs i) (Repro_util.Int_vec.get tx.vvals i)
  done

let redo_try_commit tx =
  let t = tx.ptm in
  let n = Repro_util.Int_vec.length tx.vaddrs in
  let s = t.stats.(tx.tid) in
  if n = 0 then begin
    s.commits <- s.commits + 1;
    s.read_only_commits <- s.read_only_commits + 1;
    true
  end
  else begin
    match
      (match t.profiler with
      | None -> redo_acquire_validate tx
      | Some p -> Profile.with_phase p Profile.Validate (fun () -> redo_acquire_validate tx))
    with
    | -1 ->
      (match t.conflict_hook with Some f -> f "commit-validate" 0 | None -> ());
      release_acquired_to_previous tx;
      false
    | wv ->
      begin
        let base = log_base tx in
        let log_flushes = ref 0 and log_fences = ref 0 in
        (* 1. Persist the redo log (entries before status). *)
        let persist_log () =
          if t.m.Machine.needs_flush then
            if not t.coalesce then begin
              (* Naive per-entry ordering: every entry's line is written
                 back and fenced on its own, then the sentinel. *)
              for i = 0 to n - 1 do
                clwb1 t (base + 2 + (2 * i));
                fence t
              done;
              clwb1 t (base + 2 + (2 * n));
              fence t;
              log_flushes := n + 1;
              log_fences := n + 1
            end
            else begin
              (* Batched append: one vectored sweep over the log lines
                 (only the unflushed tail under Incremental timing), then
                 a single ordering fence. *)
              let first =
                match t.flush_timing with
                | At_commit -> Layout.line_of_addr (base + 2)
                | Incremental -> tx.log_flushed_upto
              in
              let last = Layout.line_of_addr (base + 2 + (2 * n)) in
              if first <= last then begin
                let k = last - first + 1 in
                ensure_scratch tx k;
                for i = 0 to k - 1 do
                  tx.lscratch.(i) <- Layout.addr_of_line (first + i)
                done;
                clwb_batch t tx.lscratch k;
                log_flushes := k
              end;
              fence t;
              log_fences := 1
            end
        in
        (match t.inject with
        | Some Reorder_log_apply ->
          (* Injected ordering bug: the durable commit point is raised
             before the log entries are persistent.  A crash in between
             makes recovery replay whatever stale entries the media
             still holds past the status line. *)
          write_status tx status_redo_committed;
          persist_log ()
        | _ ->
          persist_log ();
          (* 2. Durable commit point. *)
          write_status tx status_redo_committed);
        (* 3. Write back to home locations; data durable before the
           orecs are released. *)
        (match t.profiler with
        | None -> redo_write_back tx n
        | Some p -> Profile.with_phase p Profile.Write_back (fun () -> redo_write_back tx n));
        let data_flushes =
          flush_written_lines tx (fun f -> Repro_util.Int_vec.iter f tx.vaddrs)
        in
        (* 4. Make the writes visible, then retire the log. *)
        release_acquired_to tx (version_word wv);
        write_status tx status_idle;
        (* Savings ledger: the naive path issues clwb+fence per log
           entry, per sentinel and per written word, plus the two
           status updates — (2n+3) of each. *)
        (match t.profiler with
        | Some p when t.coalesce && t.m.Machine.needs_flush ->
          let naive = (2 * n) + 3 in
          let actual_flushes = !log_flushes + data_flushes + 2 in
          let actual_fences = !log_fences + 3 in
          Profile.note_saved p
            ~fences:(if t.m.Machine.needs_fence then max 0 (naive - actual_fences) else 0)
            ~flushes:(max 0 (naive - actual_flushes))
        | _ -> ());
        s.commits <- s.commits + 1;
        s.max_write_set <- max s.max_write_set n;
        s.max_log_lines <- max s.max_log_lines (((2 * n) + 1 + 7) / 8);
        true
      end
    | exception Conflict ->
      release_acquired_to_previous tx;
      false
  end

(* ---------- undo (orec-eager) ---------- *)

let undo_read tx addr =
  let t = tx.ptm in
  let oidx = orec_of t addr in
  let v = orec_get t oidx in
  if locked_by v tx.tid then t.m.Machine.load addr else read_shared tx addr

let undo_write tx addr value =
  assert (addr > 0);
  let t = tx.ptm in
  let oidx = orec_of t addr in
  let v = orec_get t oidx in
  if not (locked_by v tx.tid) then begin
    if locked v then conflict tx "write-locked" addr;
    if version_of v > tx.rv && not (extend tx) then conflict tx "write-stale" addr;
    if not (orec_cas t oidx v (lock_word tx.tid)) then conflict tx "write-cas" addr;
    Repro_util.Int_table.replace tx.amap oidx v;
    Repro_util.Int_vec.push tx.acquired oidx
  end;
  if not (Repro_util.Int_table.mem tx.wmap addr) then begin
    (* First write to this word: persist (addr, old) before updating in
       place — the per-write flush + fence that makes undo O(W). *)
    if not tx.undo_status_written then begin
      (* Disarm the stale first entry left over from the previous
         transaction BEFORE raising the status: otherwise a crash in
         between makes recovery roll back with the old transaction's
         entries, undoing committed work. *)
      let first = log_base tx + 2 in
      t.m.Machine.store first 0;
      flush t first;
      fence t;
      write_status tx status_undo_active;
      tx.undo_status_written <- true
    end;
    let idx = Repro_util.Int_vec.length tx.uvec / 2 in
    if idx >= t.log_capacity then raise Log_overflow;
    let old = t.m.Machine.load addr in
    Repro_util.Int_table.replace tx.wmap addr 0;
    Repro_util.Int_vec.push tx.uvec addr;
    Repro_util.Int_vec.push tx.uvec old;
    let pos = log_base tx + 2 + (2 * idx) in
    (* Arm the entry last: until [addr] lands, recovery's scan stops at
       the zero slot, so a crash amid these stores can never roll back
       with a stale [old] (the address slot may hold garbage reused
       from an earlier transaction). *)
    (* Injected ordering bug (undo arm of reorder-log-apply): the entry
       is armed without its own write-back and fence, so the in-place
       store below can become durable before the undo entry that would
       roll it back. *)
    let reordered = t.inject = Some Reorder_log_apply in
    if Layout.line_of_addr (pos + 2) <> Layout.line_of_addr pos then begin
      (* The sentinel lives on the next cache line.  Its line must be
         durable before the armed entry's line: flushes to distinct
         lines can persist out of order, and a surviving armed entry
         next to a stale non-zero successor would let recovery scan on
         into a previous transaction's entries. *)
      t.m.Machine.store (pos + 2) 0;
      if not reordered then begin
        flush t (pos + 2);
        fence t
      end;
      t.m.Machine.store (pos + 1) old;
      t.m.Machine.store pos addr;
      if not reordered then begin
        flush t pos;
        fence t
      end
    end
    else begin
      t.m.Machine.store (pos + 1) old;
      t.m.Machine.store (pos + 2) 0 (* sentinel *);
      t.m.Machine.store pos addr;
      if not reordered then begin
        flush_range t pos (pos + 2);
        fence t
      end
    end
  end;
  t.m.Machine.store addr value

let undo_rollback tx =
  let t = tx.ptm in
  (match t.profiler with
  | None -> Repro_util.Int_vec.iter_rev_pairs (fun addr old -> t.m.Machine.store addr old) tx.uvec
  | Some p ->
    Profile.with_phase p Profile.Write_back (fun () ->
        Repro_util.Int_vec.iter_rev_pairs (fun addr old -> t.m.Machine.store addr old) tx.uvec));
  if Repro_util.Int_vec.length tx.uvec > 0 then begin
    ignore
      (flush_written_lines tx (fun f ->
           Repro_util.Int_vec.iter_rev_pairs (fun addr _ -> f addr) tx.uvec)
        : int);
    write_status tx status_idle
  end;
  release_acquired_to_previous tx

let undo_try_commit tx =
  let t = tx.ptm in
  let s = t.stats.(tx.tid) in
  let n = Repro_util.Int_vec.length tx.uvec / 2 in
  if n = 0 then begin
    s.commits <- s.commits + 1;
    s.read_only_commits <- s.read_only_commits + 1;
    true
  end
  else begin
    let wv = clock_next t in
    ignore wv;
    let valid =
      match t.profiler with
      | None -> validate_reads tx
      | Some p -> Profile.with_phase p Profile.Validate (fun () -> validate_reads tx)
    in
    if not valid then begin
      (match t.conflict_hook with Some f -> f "commit-validate" 0 | None -> ());
      undo_rollback tx;
      false
    end
    else begin
      (* Data durable before the commit point (the status clear). *)
      let data_flushes =
        flush_written_lines tx (fun f ->
            Repro_util.Int_vec.iter_rev_pairs (fun addr _ -> f addr) tx.uvec)
      in
      write_status tx status_idle;
      (* Savings ledger: naive issues clwb+fence per written word. *)
      (match t.profiler with
      | Some p when t.coalesce && t.m.Machine.needs_flush ->
        Profile.note_saved p
          ~fences:(if t.m.Machine.needs_fence then max 0 (n - 1) else 0)
          ~flushes:(max 0 (n - data_flushes))
      | _ -> ());
      release_acquired_to tx (version_word wv);
      s.commits <- s.commits + 1;
      s.max_write_set <- max s.max_write_set n;
      s.max_log_lines <- max s.max_log_lines (((2 * n) + 1 + 7) / 8);
      true
    end
  end

(* ---------- HTM ("orec-htm", the paper's §V future-work mode) ----------

   Emulates a TSX-style hardware transaction under an eADR-class
   domain: writes stay speculative (volatile buffer, no persistent
   log); the commit publishes every written word as one indivisible
   machine event, at which point the lines are both visible and inside
   the durability domain.  Capacity is bounded like a real L1-resident
   write set; exceeding it (or repeated conflicts) falls back to the
   redo STM path for that attempt. *)

let htm_write_line_cap = 128
let htm_read_cap = 1024
let htm_fallback_attempts = 4

let htm_read tx addr =
  let idx = Repro_util.Int_table.find tx.wmap addr ~absent in
  if idx <> absent then Repro_util.Int_vec.get tx.vvals idx
  else begin
    if Repro_util.Int_vec.length tx.reads >= 2 * htm_read_cap then conflict tx "htm-read-cap" addr;
    read_shared tx addr
  end

let htm_write tx addr value =
  assert (addr > 0);
  let idx = Repro_util.Int_table.find tx.wmap addr ~absent in
  if idx <> absent then Repro_util.Int_vec.set tx.vvals idx value
  else begin
    let line = Layout.line_of_addr addr in
    if not (Repro_util.Int_table.mem tx.wlines line) then begin
      if Repro_util.Int_table.length tx.wlines >= htm_write_line_cap then
        conflict tx "htm-write-cap" addr;
      Repro_util.Int_table.replace tx.wlines line 0
    end;
    let idx = Repro_util.Int_vec.length tx.vaddrs in
    Repro_util.Int_table.replace tx.wmap addr idx;
    Repro_util.Int_vec.push tx.vaddrs addr;
    Repro_util.Int_vec.push tx.vvals value
  end

(* As [redo_acquire_validate], but conflicts abort the hardware
   transaction directly (no named-site hook). *)
let htm_acquire_validate tx =
  let t = tx.ptm in
  Repro_util.Int_vec.iter
    (fun addr ->
      let oidx = orec_of t addr in
      if not (Repro_util.Int_table.mem tx.amap oidx) then begin
        let v = orec_get t oidx in
        if locked v then raise Conflict;
        if version_of v > tx.rv && not (extend tx) then raise Conflict;
        if not (orec_cas t oidx v (lock_word tx.tid)) then raise Conflict;
        Repro_util.Int_table.replace tx.amap oidx v;
        Repro_util.Int_vec.push tx.acquired oidx
      end)
    tx.vaddrs;
  let wv = clock_next t in
  if (wv > tx.rv + 1 || Repro_util.Int_vec.length tx.reads > 0) && not (validate_reads tx)
  then -1
  else wv

let htm_try_commit tx =
  let t = tx.ptm in
  let s = t.stats.(tx.tid) in
  let n = Repro_util.Int_vec.length tx.vaddrs in
  if n = 0 then begin
    s.commits <- s.commits + 1;
    s.read_only_commits <- s.read_only_commits + 1;
    true
  end
  else begin
    match
      (match t.profiler with
      | None -> htm_acquire_validate tx
      | Some p -> Profile.with_phase p Profile.Validate (fun () -> htm_acquire_validate tx))
    with
    | -1 ->
      release_acquired_to_previous tx;
      false
    | wv ->
      begin
        (* The indivisible hardware commit. *)
        let addrs = Array.make n 0 and values = Array.make n 0 in
        for i = 0 to n - 1 do
          addrs.(i) <- Repro_util.Int_vec.get tx.vaddrs i;
          values.(i) <- Repro_util.Int_vec.get tx.vvals i
        done;
        (match t.profiler with
        | None -> t.m.Machine.publish addrs values n
        | Some p ->
          Profile.with_phase p Profile.Write_back (fun () -> t.m.Machine.publish addrs values n));
        release_acquired_to tx (version_word wv);
        s.commits <- s.commits + 1;
        s.max_write_set <- max s.max_write_set n;
        true
      end
    | exception Conflict ->
      release_acquired_to_previous tx;
      false
  end

(* ---------- MOD (minimally ordered durable structures) ----------

   The MOD protocol (Haria et al., "MOD: Minimally Ordered Durable
   Datastructures"): updates are expressed as purely-functional shadow
   copies — every written word is either freshly allocated this
   transaction (shadow-class, unreachable from the published structure)
   or the one home-location word that atomically swings the structure's
   root to the new version (publish-class).  Commit then needs exactly
   one ordering point: write the shadow nodes in place, sweep their
   lines with vectored clwb, fence once, and store the 8-byte root.
   The trailing clwb of the root line is deliberately unfenced —
   recovery reads whichever root made it to media, giving {e buffered}
   durable linearizability (a WPQ-bounded committed suffix per
   structure can be lost; everything behind the durable root
   survives).

   Writes are buffered volatile until commit (like HTM).  A transaction
   that writes a {e second} distinct home-location word is not a MOD
   shape (bank transfers, multi-index TPC-C transactions): the buffer
   is materialized into the persistent redo log and the attempt
   continues on the redo path — correctness never depends on the
   workload fitting the pattern.  Shadow nodes need no ownership
   records: they are private until the root swap and immutable after
   it; conflict detection rides entirely on the root word's orec. *)

let mod_is_fresh tx addr =
  tx.in_alloc
  ||
  let n = Repro_util.Int_vec.length tx.fresh in
  let rec go i =
    i < n
    && ((addr >= Repro_util.Int_vec.get tx.fresh i
         && addr < Repro_util.Int_vec.get tx.fresh (i + 1))
       || go (i + 2))
  in
  go 0

let mod_read tx addr =
  let idx = Repro_util.Int_table.find tx.wmap addr ~absent in
  if idx <> absent then Repro_util.Int_vec.get tx.vvals idx else read_shared tx addr

(* Materialize the volatile write buffer into the persistent redo log
   and continue this attempt as a redo transaction.  The volatile index
   (wmap/vaddrs/vvals) is already in redo's shape, so only the log
   entries themselves need to be emitted. *)
let mod_fallback tx =
  let t = tx.ptm in
  let n = Repro_util.Int_vec.length tx.vaddrs in
  (* The volatile buffer is unbounded (shadow writes never touch the
     log); only a fallback must fit the persistent redo log. *)
  if n >= t.log_capacity then raise Log_overflow;
  let base = log_base tx in
  let emit () =
    for i = 0 to n - 1 do
      let pos = base + 2 + (2 * i) in
      t.m.Machine.store pos (Repro_util.Int_vec.get tx.vaddrs i);
      t.m.Machine.store (pos + 1) (Repro_util.Int_vec.get tx.vvals i)
    done;
    t.m.Machine.store (base + 2 + (2 * n)) 0 (* sentinel *)
  in
  (match t.profiler with
  | None -> emit ()
  | Some p -> Profile.with_phase p Profile.Log_append emit);
  tx.mode <- Redo

let mod_write tx addr value =
  assert (addr > 0);
  let idx = Repro_util.Int_table.find tx.wmap addr ~absent in
  if idx <> absent then Repro_util.Int_vec.set tx.vvals idx value
  else begin
    let fresh = mod_is_fresh tx addr in
    if (not fresh) && tx.pub_addr >= 0 && tx.pub_addr <> addr then begin
      (* Second distinct home-location word: not a single-root-swap
         shape.  Hand the whole attempt to the redo path. *)
      mod_fallback tx;
      redo_write tx addr value
    end
    else begin
      if not fresh then tx.pub_addr <- addr;
      let idx = Repro_util.Int_vec.length tx.vaddrs in
      Repro_util.Int_table.replace tx.wmap addr idx;
      Repro_util.Int_vec.push tx.vaddrs addr;
      Repro_util.Int_vec.push tx.vvals value
    end
  end

(* Only the publish word needs an ownership record: shadow nodes are
   private until the swap and immutable after.  Returns the write
   version, or -1 when validation failed (conflicts raise). *)
let mod_acquire_validate tx =
  let t = tx.ptm in
  if tx.pub_addr >= 0 then begin
    let addr = tx.pub_addr in
    let oidx = orec_of t addr in
    let v = orec_get t oidx in
    if locked v then conflict tx "acquire-locked" addr;
    if version_of v > tx.rv && not (extend tx) then conflict tx "acquire-stale" addr;
    if not (orec_cas t oidx v (lock_word tx.tid)) then conflict tx "acquire-cas" addr;
    Repro_util.Int_table.replace tx.amap oidx v;
    Repro_util.Int_vec.push tx.acquired oidx
  end;
  let wv = clock_next t in
  if (wv > tx.rv + 1 || Repro_util.Int_vec.length tx.reads > 0) && not (validate_reads tx)
  then -1
  else wv

(* A single store charged to [Write_back] when profiling. *)
let prof_store t a v =
  match t.profiler with
  | None -> t.m.Machine.store a v
  | Some p -> Profile.with_phase p Profile.Write_back (fun () -> t.m.Machine.store a v)

let mod_shadow_stores tx n =
  let t = tx.ptm in
  for i = 0 to n - 1 do
    let a = Repro_util.Int_vec.get tx.vaddrs i in
    if a <> tx.pub_addr then t.m.Machine.store a (Repro_util.Int_vec.get tx.vvals i)
  done

let mod_try_commit tx =
  let t = tx.ptm in
  let s = t.stats.(tx.tid) in
  let n = Repro_util.Int_vec.length tx.vaddrs in
  if n = 0 then begin
    s.commits <- s.commits + 1;
    s.read_only_commits <- s.read_only_commits + 1;
    true
  end
  else begin
    match
      (match t.profiler with
      | None -> mod_acquire_validate tx
      | Some p -> Profile.with_phase p Profile.Validate (fun () -> mod_acquire_validate tx))
    with
    | -1 ->
      (match t.conflict_hook with Some f -> f "commit-validate" 0 | None -> ());
      release_acquired_to_previous tx;
      false
    | exception Conflict ->
      release_acquired_to_previous tx;
      false
    | wv ->
      begin
        (* 1. Shadow stores: every buffered word except the root. *)
        (match t.profiler with
        | None -> mod_shadow_stores tx n
        | Some p -> Profile.with_phase p Profile.Write_back (fun () -> mod_shadow_stores tx n));
        (* 2. One clwb sweep over the shadow lines, then THE fence. *)
        let sweep () =
          if not t.m.Machine.needs_flush then 0
          else if t.inject = Some Skip_fence then
            (* Injected missing ordering point: publish with no shadow
               sweep at all — neither clwbs nor the fence.  (Eliding
               only the sfence is unobservable in this machine model:
               clwb issue slots outpace the bounded WPQ drain, so the
               issued sweep is media-ordered before the root swap with
               or without the wait.  The reachable form of the classic
               "no flush epoch before the root swap" MOD bug is to skip
               the sweep wholesale; shadow nodes then reach media only
               by cache eviction.) *)
            0
          else begin
            let iter f =
              Repro_util.Int_vec.iter (fun a -> if a <> tx.pub_addr then f a) tx.vaddrs
            in
            let k =
              if t.coalesce then begin
                let k = gather_lines tx iter in
                clwb_batch t tx.lscratch k;
                k
              end
              else begin
                (* Naive A/B mode: no line dedup, but MOD's protocol is
                   still one fence — per-word ordering is not MOD. *)
                let issued = ref 0 in
                iter (fun a ->
                    incr issued;
                    clwb1 t a);
                !issued
              end
            in
            fence t;
            k
          end
        in
        (* 3. The 8-byte atomic root swap; its trailing clwb is
           unfenced — buffered durability, recovery reads the root. *)
        let publish () =
          if tx.pub_addr >= 0 then begin
            let a = tx.pub_addr in
            let pv = Repro_util.Int_vec.get tx.vvals (Repro_util.Int_table.find tx.wmap a ~absent) in
            match t.inject with
            | Some Tear_write ->
              (* Injected torn root swap: a byte-granular root write
                 (memcpy-style) where only the low byte landed before
                 the line was written back.  The corrective store fixes
                 the cache-visible word but is never flushed, so the
                 media keeps the torn pointer until an eviction. *)
              let old = t.m.Machine.raw_read a in
              let torn = old land lnot 0xFF lor (pv land 0xFF) in
              prof_store t a torn;
              flush t a;
              prof_store t a pv
            | _ ->
              prof_store t a pv;
              flush t a
          end
        in
        let data_flushes =
          match t.inject with
          | Some Reorder_log_apply ->
            (* Injected ordering bug: the root swings before the shadow
               nodes are durable — a crash in between recovers a root
               pointing at unswept garbage. *)
            publish ();
            sweep ()
          | _ ->
            let k = sweep () in
            publish ();
            k
        in
        (* 4. Make the swap visible to other threads. *)
        release_acquired_to tx (version_word wv);
        (* Savings ledger vs a per-word discipline (clwb + fence per
           written word, root included). *)
        (match t.profiler with
        | Some p when t.coalesce && t.m.Machine.needs_flush ->
          Profile.note_saved p
            ~fences:(if t.m.Machine.needs_fence then max 0 (n - 1) else 0)
            ~flushes:(max 0 (n - data_flushes - 1))
        | _ -> ());
        s.commits <- s.commits + 1;
        s.max_write_set <- max s.max_write_set n;
        true
      end
  end

(* ---------- public transactional API ---------- *)

let dispatch_read tx addr =
  match tx.mode with
  | Redo -> redo_read tx addr
  | Undo -> undo_read tx addr
  | Htm -> htm_read tx addr
  | Mod -> mod_read tx addr

let read tx addr =
  match tx.ptm.profiler with
  | None -> dispatch_read tx addr
  | Some p -> Profile.with_phase p Profile.Read_set (fun () -> dispatch_read tx addr)

let dispatch_write tx addr value =
  match tx.mode with
  | Redo -> redo_write tx addr value
  | Undo -> undo_write tx addr value
  | Htm -> htm_write tx addr value
  | Mod -> mod_write tx addr value

let write tx addr value =
  match tx.ptm.profiler with
  | None -> dispatch_write tx addr value
  | Some p -> Profile.with_phase p Profile.Log_append (fun () -> dispatch_write tx addr value)

let on_commit tx hook = tx.commit_hooks <- hook :: tx.commit_hooks

let on_abort tx hook = tx.abort_hooks <- hook :: tx.abort_hooks

let tx_ops tx =
  {
    Pmem.Alloc.txr = (fun addr -> read tx addr);
    txw = (fun addr v -> write tx addr v);
    on_commit = (fun hook -> on_commit tx hook);
    on_abort = (fun hook -> on_abort tx hook);
  }

let alloc tx words =
  match tx.mode with
  | Mod ->
    (* Allocator metadata writes (block header, free-list links) are
       shadow-class for MOD: the block is unreachable until the root
       swap, and recovery's allocator scan only trusts swept memory. *)
    tx.in_alloc <- true;
    let payload =
      match Pmem.Alloc.alloc tx.ptm.allocator (tx_ops tx) ~words with
      | payload ->
        tx.in_alloc <- false;
        payload
      | exception e ->
        tx.in_alloc <- false;
        raise e
    in
    Repro_util.Int_vec.push tx.fresh (payload - 1);
    Repro_util.Int_vec.push tx.fresh (payload + words);
    payload
  | Redo | Undo | Htm -> Pmem.Alloc.alloc tx.ptm.allocator (tx_ops tx) ~words

let free tx payload = Pmem.Alloc.free tx.ptm.allocator (tx_ops tx) payload

let abort_and_retry _tx = raise Conflict

let backoff tx =
  let cap = min (1 lsl (6 + min tx.attempts 8)) 32768 in
  match tx.ptm.profiler with
  | None -> tx.ptm.m.Machine.pause (64 + Repro_util.Rng.int tx.rng cap)
  | Some p ->
    Profile.with_phase p Profile.Backoff (fun () ->
        tx.ptm.m.Machine.pause (64 + Repro_util.Rng.int tx.rng cap))

(* Abort cleanup for a conflict discovered mid-execution (Conflict
   raised from read/write) or a user exception. *)
let abort_cleanup tx =
  (match tx.mode with
  | Redo | Htm | Mod -> release_acquired_to_previous tx (* only locked during commit *)
  | Undo -> undo_rollback tx);
  List.iter (fun hook -> hook ()) tx.abort_hooks;
  tx.ptm.stats.(tx.tid).aborts <- tx.ptm.stats.(tx.tid).aborts + 1

let rec atomic : 'a. t -> (tx -> 'a) -> 'a =
 fun t f ->
  let tx = tx_for t in
  if tx.depth > 0 then f tx
  else begin
    (match t.profiler with Some p -> Profile.txn_begin p | None -> ());
    tx.depth <- 1;
    tx.attempts <- 0;
    attempt t tx f
  end

(* Top-level rather than nested in [atomic]: the retry loop, finish and
   abort paths would otherwise be three closures allocated per
   transaction even on the conflict-free fast path. *)
and attempt : 'a. t -> tx -> (tx -> 'a) -> 'a =
 fun t tx f ->
  reset_tx tx;
  (* HTM gives up after a few hardware attempts and falls back to the
     (flush-free, under eADR) redo STM path. *)
  tx.mode <-
    (match t.alg with
    | Htm when tx.attempts >= htm_fallback_attempts -> Redo
    | a -> a);
  tx.rv <- clock_read t;
  match f tx with
  | value ->
    let committed =
      match tx.mode with
      | Redo -> redo_try_commit tx
      | Undo -> undo_try_commit tx
      | Htm -> htm_try_commit tx
      | Mod -> mod_try_commit tx
    in
    if committed then begin
      tx.depth <- 0;
      (* Close the profile envelope before commit hooks run: a hook may
         start a fresh transaction on this thread. *)
      (match t.profiler with Some p -> Profile.txn_end p ~committed:true | None -> ());
      let hooks = List.rev tx.commit_hooks in
      tx.commit_hooks <- [];
      List.iter (fun hook -> hook ()) hooks;
      value
    end
    else begin
      (* Commit-time conflict: orecs already released by try_commit. *)
      List.iter (fun hook -> hook ()) tx.abort_hooks;
      t.stats.(tx.tid).aborts <- t.stats.(tx.tid).aborts + 1;
      (match t.profiler with Some p -> Profile.note_abort p | None -> ());
      tx.attempts <- tx.attempts + 1;
      backoff tx;
      attempt t tx f
    end
  | exception Conflict ->
    abort_cleanup tx;
    (match t.profiler with Some p -> Profile.note_abort p | None -> ());
    tx.attempts <- tx.attempts + 1;
    backoff tx;
    attempt t tx f
  | exception Machine.Crashed ->
    (* Power failure: no cleanup — that is the point. *)
    raise Machine.Crashed
  | exception e ->
    abort_cleanup tx;
    tx.depth <- 0;
    (match t.profiler with Some p -> Profile.txn_end p ~committed:false | None -> ());
    raise e

(* ---------- statistics ---------- *)

module Stats = struct
  type ptm = t

  type t = {
    commits : int;
    aborts : int;
    read_only_commits : int;
    max_write_set : int;
    max_log_lines : int;
  }

  let get (p : ptm) =
    Array.fold_left
      (fun acc (s : thread_stats) ->
        {
          commits = acc.commits + s.commits;
          aborts = acc.aborts + s.aborts;
          read_only_commits = acc.read_only_commits + s.read_only_commits;
          max_write_set = max acc.max_write_set s.max_write_set;
          max_log_lines = max acc.max_log_lines s.max_log_lines;
        })
      { commits = 0; aborts = 0; read_only_commits = 0; max_write_set = 0; max_log_lines = 0 }
      p.stats

  let reset (p : ptm) =
    Array.iteri (fun i _ -> p.stats.(i) <- fresh_stats ()) p.stats

  let commits_per_abort t =
    if t.aborts = 0 then infinity else float_of_int t.commits /. float_of_int t.aborts
end
