(* The public face of the PTM: construction, recovery, the retry loop
   and statistics.  The shared transaction core lives in [Ptm_core];
   each commit protocol is one module implementing
   [Ptm_core.ALGORITHM], and the four [match tx.mode] dispatches below
   are the only places that name them all. *)

open Ptm_core

type algorithm = Ptm_core.algorithm = Redo | Undo | Htm | Mod

let algorithms = [ Redo; Undo; Htm; Mod ]

let algorithm_name = function Redo -> "redo" | Undo -> "undo" | Htm -> "htm" | Mod -> "mod"

let algorithm_of_name name = List.find_opt (fun a -> algorithm_name a = name) algorithms

type flush_timing = Ptm_core.flush_timing = At_commit | Incremental
type inject = Ptm_core.inject = Skip_fence | Reorder_log_apply | Tear_write

let inject_name = function
  | Skip_fence -> "skip-fence"
  | Reorder_log_apply -> "reorder-log-apply"
  | Tear_write -> "tear-write"

let inject_of_name name =
  List.find_opt (fun i -> inject_name i = name) [ Skip_fence; Reorder_log_apply; Tear_write ]

exception Log_overflow = Ptm_core.Log_overflow

module Recovery_report = Ptm_core.Recovery_report

type nonrec t = t
type nonrec tx = tx

module _ : ALGORITHM = Redo_alg
module _ : ALGORITHM = Undo_alg
module _ : ALGORITHM = Htm_alg
module _ : ALGORITHM = Mod_alg

(* ---------- construction ---------- *)

let fresh_tx t tid =
  {
    ptm = t;
    tid;
    rng = Repro_util.Rng.create (t.rng_seed + tid);
    depth = 0;
    rv = 0;
    attempts = 0;
    wmap = Int_table.create 64;
    vaddrs = Int_vec.create ();
    vvals = Int_vec.create ();
    uvec = Int_vec.create ();
    reads = Int_vec.create ~capacity:64 ();
    acquired = Int_vec.create ();
    amap = Int_table.create 16;
    flushed = Int_table.create 64;
    lscratch = Array.make 16 0;
    commit_hooks = [];
    abort_hooks = [];
    log_flushed_upto = 0;
    mode = t.alg;
    wlines = Int_table.create 64;
    fresh = Int_vec.create ();
    pub_addr = -1;
    in_alloc = false;
  }

let fresh_stats () =
  { commits = 0; aborts = 0; read_only_commits = 0; max_write_set = 0; max_log_lines = 0 }

let default_rng_seed = 0x5EED

(* Checked before [create] formats or [recover] repairs anything, so a
   rejected configuration leaves the image as it was. *)
let check_config ~algorithm ~orec_bits m =
  (* HTM is incompatible with explicit flushes: clwb of a speculative
     line aborts the hardware transaction (the paper's §II point about
     TSX under ADR).  Only eADR-class domains — or an ADR machine whose
     HTM commits are themselves durable (durable_publish) — may run it. *)
  if algorithm = Htm && m.Machine.needs_flush && not m.Machine.durable_publish then
    invalid_arg "Ptm: the HTM algorithm requires an eADR-class durability domain";
  if Meta.orec_base + (1 lsl orec_bits) > m.Machine.meta_words then
    invalid_arg "Ptm: orec table does not fit in the metadata space"

let build ~algorithm ~orec_bits ~flush_timing ~coalesce ~rng_seed ~profiler ~last_recovery
    ~inject m reg allocator =
  let nthreads = Pmem.Region.max_threads reg in
  {
    m;
    reg;
    allocator;
    alg = algorithm;
    flush_timing;
    coalesce;
    orec_mask = (1 lsl orec_bits) - 1;
    log_capacity = (Pmem.Region.log_words_per_thread reg - 3) / 2;
    txs = Array.make nthreads None;
    stats = Array.init nthreads (fun _ -> fresh_stats ());
    rng_seed;
    profiler;
    last_recovery;
    inject;
  }

let create ?(algorithm = Redo) ?(orec_bits = 20) ?(flush_timing = At_commit) ?(coalesce = true)
    ?(max_threads = 32) ?(log_words_per_thread = 8192) ?(rng_seed = default_rng_seed) ?inject m =
  check_config ~algorithm ~orec_bits m;
  let reg = Pmem.Region.create ~max_threads ~log_words_per_thread m in
  let allocator = Pmem.Alloc.create reg in
  (* Log status words must start out durably idle. *)
  for tid = 0 to max_threads - 1 do
    m.Machine.raw_write (Pmem.Region.log_base reg ~tid) status_idle
  done;
  build ~algorithm ~orec_bits ~flush_timing ~coalesce ~rng_seed ~profiler:None
    ~last_recovery:None ~inject m reg allocator

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
  check_config ~algorithm ~orec_bits m;
  let reg = Pmem.Region.attach m in
  let report =
    match profiler with
    | None -> recover_logs m reg
    | Some p -> Profile.with_phase p Profile.Recovery (fun () -> recover_logs m reg)
  in
  let allocator = Pmem.Alloc.recover reg in
  build ~algorithm ~orec_bits ~flush_timing ~coalesce ~rng_seed ~profiler
    ~last_recovery:(Some report) ~inject m reg allocator

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

let tx_for t =
  let tid = t.m.Machine.tid () in
  match t.txs.(tid) with
  | Some tx -> tx
  | None ->
    let tx = fresh_tx t tid in
    t.txs.(tid) <- Some tx;
    tx

let reset_tx tx =
  Int_table.clear tx.wmap;
  Int_vec.clear tx.vaddrs;
  Int_vec.clear tx.vvals;
  Int_vec.clear tx.uvec;
  Int_vec.clear tx.reads;
  Int_vec.clear tx.acquired;
  Int_table.clear tx.amap;
  Int_table.clear tx.flushed;
  tx.commit_hooks <- [];
  tx.abort_hooks <- [];
  tx.log_flushed_upto <- Layout.line_of_addr (log_entry tx 0);
  Int_table.clear tx.wlines;
  Int_vec.clear tx.fresh;
  tx.pub_addr <- -1;
  tx.in_alloc <- false

(* ---------- public transactional API ---------- *)

let[@inline] dispatch_read tx addr =
  match tx.mode with
  | Redo -> Redo_alg.read tx addr
  | Undo -> Undo_alg.read tx addr
  | Htm -> Htm_alg.read tx addr
  | Mod -> Mod_alg.read tx addr

(* [read] and [write] inline into their callers; the profiled path,
   which allocates a closure, stays out of line. *)
let[@inline never] profiled_read p tx addr =
  Profile.with_phase p Profile.Read_set (fun () -> dispatch_read tx addr)

let[@inline] read tx addr =
  match tx.ptm.profiler with
  | None -> dispatch_read tx addr
  | Some p -> profiled_read p tx addr

let[@inline] dispatch_write tx addr value =
  match tx.mode with
  | Redo -> Redo_alg.write tx addr value
  | Undo -> Undo_alg.write tx addr value
  | Htm -> Htm_alg.write tx addr value
  | Mod -> Mod_alg.write tx addr value

let[@inline never] profiled_write p tx addr value =
  Profile.with_phase p Profile.Log_append (fun () -> dispatch_write tx addr value)

let[@inline] write tx addr value =
  match tx.ptm.profiler with
  | None -> dispatch_write tx addr value
  | Some p -> profiled_write p tx addr value

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
      Fun.protect
        ~finally:(fun () -> tx.in_alloc <- false)
        (fun () -> Pmem.Alloc.alloc tx.ptm.allocator (tx_ops tx) ~words)
    in
    Int_vec.push tx.fresh (payload - 1);
    Int_vec.push tx.fresh (payload + words);
    payload
  | _ -> Pmem.Alloc.alloc tx.ptm.allocator (tx_ops tx) ~words

let free tx payload = Pmem.Alloc.free tx.ptm.allocator (tx_ops tx) payload

let abort_and_retry _tx = raise Conflict

let backoff tx =
  let cap = min (1 lsl (6 + min tx.attempts 8)) 32768 in
  match tx.ptm.profiler with
  | None -> tx.ptm.m.Machine.pause (64 + Repro_util.Rng.int tx.rng cap)
  | Some p ->
    Profile.with_phase p Profile.Backoff (fun () ->
        tx.ptm.m.Machine.pause (64 + Repro_util.Rng.int tx.rng cap))

(* Abort cleanup for a conflict (raised from read/write, or a failed
   commit-time validation) or a user exception. *)
let abort_cleanup tx =
  (match tx.mode with
  | Redo -> Redo_alg.abort tx
  | Undo -> Undo_alg.abort tx
  | Htm -> Htm_alg.abort tx
  | Mod -> Mod_alg.abort tx);
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
   abort paths would otherwise be closures allocated per transaction
   even on the conflict-free fast path. *)
and attempt : 'a. t -> tx -> (tx -> 'a) -> 'a =
 fun t tx f ->
  reset_tx tx;
  (* HTM gives up after a few hardware attempts and falls back to the
     (flush-free, under eADR) redo STM path. *)
  tx.mode <-
    (match t.alg with
    | Htm when tx.attempts >= Htm_alg.fallback_attempts -> Redo
    | a -> a);
  tx.rv <- clock_read t;
  match f tx with
  | value ->
    let committed =
      if Int_table.length tx.wmap = 0 then commit_read_only tx
      else
        match tx.mode with
        | Redo -> Redo_alg.try_commit tx
        | Undo -> Undo_alg.try_commit tx
        | Htm -> Htm_alg.try_commit tx
        | Mod -> Mod_alg.try_commit tx
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
    else retry t tx f (* validation failed *)
  | exception Conflict -> retry t tx f
  | exception Machine.Crashed ->
    (* Power failure: no cleanup — that is the point. *)
    raise Machine.Crashed
  | exception e ->
    abort_cleanup tx;
    tx.depth <- 0;
    (match t.profiler with Some p -> Profile.txn_end p ~committed:false | None -> ());
    raise e

and retry : 'a. t -> tx -> (tx -> 'a) -> 'a =
 fun t tx f ->
  abort_cleanup tx;
  (match t.profiler with Some p -> Profile.note_abort p | None -> ());
  tx.attempts <- tx.attempts + 1;
  backoff tx;
  attempt t tx f

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
