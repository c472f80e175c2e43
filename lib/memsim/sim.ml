module Layout = Machine.Layout

type counters = {
  mutable loads : int;
  mutable stores : int;
  mutable clwbs : int;
  mutable sfences : int;
  mutable fence_wait_ns : int;
  mutable pdram_page_hits : int;
  mutable pdram_page_misses : int;
}

(* Volatile metadata space: one signed 32-bit value per slot, 4 bytes
   apiece in a buffer the GC never scans, plus one dirty byte per page
   of [1 lsl meta_page_bits] slots, set by every store. *)
type meta = {
  n : int; (* slot count, 0 in [no_meta] *)
  slots : Bytes.t;
  pages : Bytes.t;
}

let no_meta = { n = 0; slots = Bytes.empty; pages = Bytes.empty }
let meta_page_bits = 9

external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

(* The one bounds check of a meta access; returns the slot's byte
   offset.  A released space has no slots. *)
let[@inline] meta_offset meta i =
  if i < 0 || i >= meta.n then
    invalid_arg "Sim: metadata index out of bounds";
  i lsl 2

(* A thread that a machine operation suspends with a program
   ([Sched.suspend]) keeps the operation's state in [prog_stride]
   slots of [t.prog]: its stage, then the validated load's orec slot
   offset, bound and address, the orec word and the value read.
   Written only when a wait suspends. *)
let prog_stride = 6

(* Stages.  A programmed thread is at [read_orec] (its step reads the
   orec word and, when it allows, issues the load), [loaded] (the load
   completed, the re-check's wait is next) or [fence_cost] (an sfence
   drained, the fence's own cost is next).  A validated load's program
   ends at [recheck], where the resumed thread re-reads the orec, or
   [stopped], when the orec word was locked or newer than the bound. *)
let read_orec = 0
let loaded = 1
let fence_cost = 2
let recheck = 3
let stopped = 4

type t = {
  cfg : Config.t;
  sched : Sched.t;
  heap : Pheap.t;
  media : Pheap.t option; (* persisted image; None when not tracked *)
  l3 : Cache.t;
  wpq_nvm : Server.t array; (* one per interleaved channel; line mod N *)
  wpq_dram : Server.t;
  rd_nvm : Server.t array;
  rd_dram : Server.t;
  page_cache : Repro_util.Lru.t option; (* PDRAM directory *)
  (* [log_lo, log_hi): the PTM log range (empty until marked), which
     PDRAM-Lite places in DRAM.  One per machine: the region header
     sits at word 0. *)
  mutable log_lo : int;
  mutable log_hi : int;
  mutable fence_target : int array; (* per-tid max completion of own WPQ entries *)
  mutable fence_wait_by_tid : int array; (* per-tid share of fence_wait_ns *)
  mutable wpq_stall_by_tid : int array; (* per-tid WPQ backpressure stalls *)
  mutable trace : Trace.t option;
  (* Lines whose content is travelling towards the NVM controller:
     captured at clwb/eviction issue, power-safe only once the WPQ
     entry is serviced.  A crash before then loses them — the loss
     window sfence exists to close. *)
  pending : Pending.t;
  (* Optional dirty-tracking window over the heap (page table + line
     bitmap), fed from [store]/[publish] — the FAMS substrate.  [None]
     costs one branch per store. *)
  mutable dirty : Dirty.t option;
  (* Volatile metadata space shared by every [machine] facade:
     [no_meta] until the first [machine] call and again after
     [release]. *)
  mutable meta : meta;
  mutable released : bool;
  (* Per-thread program state, [prog_stride] slots from [tid *
     prog_stride]: valid while the thread is [Sched.suspend]ed. *)
  mutable prog : int array;
  c : counters;
}

let make (cfg : Config.t) =
  {
    cfg;
    sched = Sched.create ();
    heap = Pheap.create ~words:cfg.heap_words;
    media = (if cfg.track_media then Some (Pheap.create ~words:cfg.heap_words) else None);
    l3 = Cache.create ~bytes:cfg.l3_bytes ~ways:cfg.l3_ways;
    wpq_nvm =
      Array.init cfg.nvm_channels (fun _ ->
          Server.create ~service_ns:cfg.lat.nvm_wpq_service_ns
            ~capacity:(max 1 (cfg.wpq_capacity / cfg.nvm_channels)));
    wpq_dram =
      Server.create ~service_ns:cfg.lat.dram_wpq_service_ns ~capacity:cfg.dram_wpq_capacity;
    rd_nvm =
      Array.init cfg.nvm_channels (fun _ ->
          Server.create ~service_ns:cfg.lat.nvm_read_service_ns ~capacity:0);
    rd_dram = Server.create ~service_ns:cfg.lat.dram_read_service_ns ~capacity:0;
    page_cache =
      (if cfg.model.pdram_cache then
         Some (Repro_util.Lru.create ~capacity:(max 1 (cfg.pdram_cache_bytes / 4096)))
       else None);
    log_lo = 0;
    log_hi = 0;
    fence_target = Array.make 64 0;
    fence_wait_by_tid = Array.make 64 0;
    wpq_stall_by_tid = Array.make 64 0;
    trace = None;
    pending = Pending.create ~stride:Layout.words_per_line ();
    dirty = None;
    meta = no_meta;
    released = false;
    prog = [||];
    c =
      {
        loads = 0;
        stores = 0;
        clwbs = 0;
        sfences = 0;
        fence_wait_ns = 0;
        pdram_page_hits = 0;
        pdram_page_misses = 0;
      };
  }

let config t = t.cfg

let enable_trace ?capacity t =
  let tr = Trace.create ?capacity () in
  t.trace <- Some tr;
  tr

(* Call sites must only build the [Trace.event] under a [Some] match on
   [t.trace] — constructing the variant before checking would put one
   allocation on every load/store even with tracing off. *)
let trace_record t tr kind = Trace.record tr ~at_ns:(Sched.now t.sched) ~tid:(Sched.tid t.sched) kind

let[@inline] in_log_range t addr = addr >= t.log_lo && addr < t.log_hi

(* Media backing a word under the current placement model. *)
let media_of t addr : Config.media =
  match t.cfg.model.data_media with
  | Config.Dram -> Config.Dram
  | Config.Nvm -> if t.cfg.model.log_in_dram && in_log_range t addr then Config.Dram else Config.Nvm

(* Persist one line's current heap content into the media image. *)
let line_to_media t line =
  match t.media with
  | None -> ()
  | Some media ->
    let base = Layout.addr_of_line line in
    let len = min Layout.words_per_line (t.cfg.heap_words - base) in
    Pheap.copy_range ~src:t.heap ~dst:media base len

(* ADR persists a line only once the controller has serviced its WPQ
   entry; until then the content rides in [pending].  eADR-family
   domains and battery-backed DRAM paths stay eager: their reserve
   power covers in-flight traffic, so there is no loss window.  Only
   timed execution defers — untimed setup/recovery phases run outside
   the clock (crashes cannot be armed there), and deferring against a
   frozen [Sched.now] would just accumulate unsettleable entries. *)
let adr_defers t =
  t.media <> None
  && Sched.running t.sched
  &&
  match t.cfg.model.persistence with
  | Config.Adr _ -> true
  | Config.Eadr | Config.Transient_cache -> false

let defer_line t ~now line ~apply_at =
  match t.media with
  | None -> ()
  | Some media ->
    let base = Layout.addr_of_line line in
    let len = min Layout.words_per_line (t.cfg.heap_words - base) in
    Pending.add t.pending ~apply_at ~line ~src:t.heap ~base ~len;
    if Pending.count t.pending > 4096 then
      (* Settle entries already past the current virtual time: a crash
         can only be armed at some instant > [now] (this thread is
         still executing), so their loss window is closed. *)
      Pending.settle t.pending ~now media

(* Interleaving: consecutive cache lines rotate across channels. *)
let nvm_wpq_of t line = t.wpq_nvm.(line mod Array.length t.wpq_nvm)
let nvm_rd_of t line = t.rd_nvm.(line mod Array.length t.rd_nvm)

let ensure_fence_slot t tid =
  if tid >= Array.length t.fence_target then begin
    let grow src =
      let bigger = Array.make (2 * (tid + 1)) 0 in
      Array.blit src 0 bigger 0 (Array.length src);
      bigger
    in
    t.fence_target <- grow t.fence_target;
    t.fence_wait_by_tid <- grow t.fence_wait_by_tid;
    t.wpq_stall_by_tid <- grow t.wpq_stall_by_tid
  end

(* Attribute a WPQ backpressure stall to the thread that paid it.  The
   machine-wide total ([Server.stall_ns]) also counts bulk PDRAM page
   drains that are not charged to any thread, so the per-tid sum is a
   lower bound on the total. *)
let note_wpq_stall t tid stall =
  if stall > 0 then begin
    ensure_fence_slot t tid;
    t.wpq_stall_by_tid.(tid) <- t.wpq_stall_by_tid.(tid) + stall
  end

(* PDRAM page-cache lookup for an NVM word.  Returns `Dram_hit when the
   page is resident; on a miss, installs the page, charges fetch cost
   and possible dirty-page write-back bandwidth. *)
let pdram_access t ~now ~page ~write =
  match t.page_cache with
  | None -> `Not_pdram
  | Some pc -> (
    match Repro_util.Lru.touch pc page ~dirty:write with
    | `Hit ->
      t.c.pdram_page_hits <- t.c.pdram_page_hits + 1;
      `Dram_hit
    | `Miss evicted ->
      t.c.pdram_page_misses <- t.c.pdram_page_misses + 1;
      (* Dirty victim page drains to NVM: bulk WPQ occupancy, async. *)
      (match evicted with
      | Some { dirty = true; key = victim_page } ->
        let lines = Layout.words_per_page / Layout.words_per_line in
        let first_line = victim_page * lines in
        for l = 0 to lines - 1 do
          Server.enqueue_fast (nvm_wpq_of t (first_line + l)) ~now
        done
      | Some { dirty = false; _ } | None -> ());
      `Dram_miss)

(* Write-back of an evicted dirty line: content is in flight towards
   the controller; bandwidth charged on the backing channel; issuing
   thread stalls only on WPQ backpressure.  On the NVM path under ADR
   the media image is updated at the entry's service time — eviction
   write-backs are not tracked by fence targets, exactly as x86 dirty
   evictions are not ordered by sfence. *)
let writeback_line t ~now line =
  let addr = Layout.addr_of_line line in
  let stall =
    match media_of t addr with
    | Config.Dram ->
      line_to_media t line;
      Server.enqueue_fast t.wpq_dram ~now;
      Server.last_ready t.wpq_dram - now
    | Config.Nvm ->
      if t.cfg.model.pdram_cache then begin
        (* Line lands in the DRAM page cache; page marked dirty. *)
        line_to_media t line;
        let page = Layout.page_of_addr addr in
        (match pdram_access t ~now ~page ~write:true with
        | `Dram_hit | `Not_pdram -> ()
        | `Dram_miss -> ());
        Server.enqueue_fast t.wpq_dram ~now;
        Server.last_ready t.wpq_dram - now
      end
      else begin
        let server = nvm_wpq_of t line in
        Server.enqueue_fast server ~now;
        if adr_defers t then
          defer_line t ~now line ~apply_at:(Server.last_completion server)
        else line_to_media t line;
        Server.last_ready server - now
      end
  in
  note_wpq_stall t (Sched.tid t.sched) stall;
  stall

(* Memory access latency below the L3 for a miss on [addr]. *)
let miss_latency t ~now ~addr ~write =
  let lat = t.cfg.lat in
  match media_of t addr with
  | Config.Dram ->
    let done_at = Server.acquire_sync t.rd_dram ~now ~latency_ns:lat.dram_load_ns in
    ignore write;
    done_at - now
  | Config.Nvm -> (
    let page = Layout.page_of_addr addr in
    match pdram_access t ~now ~page ~write with
    | `Dram_hit ->
      let done_at = Server.acquire_sync t.rd_dram ~now ~latency_ns:lat.dram_load_ns in
      done_at - now
    | `Dram_miss ->
      let done_at =
        Server.acquire_sync
          (nvm_rd_of t (Layout.line_of_addr addr))
          ~now
          ~latency_ns:(lat.nvm_load_ns + lat.page_fetch_ns)
      in
      done_at - now
    | `Not_pdram ->
      let done_at =
        Server.acquire_sync (nvm_rd_of t (Layout.line_of_addr addr)) ~now
          ~latency_ns:lat.nvm_load_ns
      in
      done_at - now)

let[@inline] check_addr t addr =
  if addr < 0 || addr >= t.cfg.heap_words then
    invalid_arg (Printf.sprintf "Sim: heap address %d out of bounds" addr)

(* The latency of an access to [addr], already validated by the
   caller, issued now: the cache and the memory servers see it here. *)
let access_unchecked t ~addr ~write =
  let now = Sched.now t.sched in
  let line = Layout.line_of_addr addr in
  let r = Cache.access_fast t.l3 ~line ~write in
  if r = Cache.hit then t.cfg.lat.cache_hit_ns
  else begin
    let stall = if r >= 0 then writeback_line t ~now r else 0 in
    stall + miss_latency t ~now:(now + stall) ~addr ~write
  end

(* A load's work at issue, but for its value; returns its latency. *)
let[@inline] load_issue t addr =
  t.c.loads <- t.c.loads + 1;
  (match t.trace with None -> () | Some tr -> trace_record t tr (Trace.Load addr));
  access_unchecked t ~addr ~write:false

(* The value is read once the latency is waited out. *)
let load t addr =
  check_addr t addr;
  Sched.wait t.sched (load_issue t addr);
  Pheap.get t.heap addr

let store t addr v =
  check_addr t addr;
  t.c.stores <- t.c.stores + 1;
  (match t.trace with None -> () | Some tr -> trace_record t tr (Trace.Store addr));
  (* Architectural value changes at issue; latency paid after. *)
  Pheap.set t.heap addr v;
  (match t.dirty with None -> () | Some d -> Dirty.note d addr);
  Sched.wait t.sched (access_unchecked t ~addr ~write:true)

(* One write-back's controller-side work, shared by [clwb] and
   [clwb_many]: hand the line to its WPQ if it is dirty in L3, account
   deferred-media application and the per-thread fence target, and
   return the queue-admission stall paid at [now]. *)
let clwb_issue t ~now ~tid addr =
  let line = Layout.line_of_addr addr in
  if Cache.clean t.l3 ~line then begin
    let nvm_path =
      match media_of t addr with
      | Config.Dram -> false
      | Config.Nvm -> not t.cfg.model.pdram_cache
    in
    let server = if nvm_path then nvm_wpq_of t line else t.wpq_dram in
    Server.enqueue_fast server ~now;
    let completion = Server.last_completion server in
    if nvm_path && adr_defers t then defer_line t ~now line ~apply_at:completion
    else line_to_media t line;
    if completion > t.fence_target.(tid) then t.fence_target.(tid) <- completion;
    Server.last_ready server - now
  end
  else 0

let clwb t addr =
  t.c.clwbs <- t.c.clwbs + 1;
  (match t.trace with None -> () | Some tr -> trace_record t tr (Trace.Clwb addr));
  let now = Sched.now t.sched in
  let tid = Sched.tid t.sched in
  ensure_fence_slot t tid;
  let stall = clwb_issue t ~now ~tid addr in
  note_wpq_stall t tid stall;
  Sched.wait t.sched (stall + t.cfg.lat.clwb_ns)

(* Coalesced sweep: all [n] write-backs are handed to their controllers
   at the same issue instant, so their WPQ drains overlap instead of
   each waiting out the previous clwb's issue latency.  The thread still
   pays every issue slot and every admission stall. *)
let clwb_many t addrs n =
  if n > 0 then begin
    let now = Sched.now t.sched in
    let tid = Sched.tid t.sched in
    ensure_fence_slot t tid;
    let stalls = ref 0 in
    for i = 0 to n - 1 do
      let addr = addrs.(i) in
      t.c.clwbs <- t.c.clwbs + 1;
      (match t.trace with None -> () | Some tr -> trace_record t tr (Trace.Clwb addr));
      stalls := !stalls + clwb_issue t ~now ~tid addr
    done;
    note_wpq_stall t tid !stalls;
    Sched.wait t.sched (!stalls + (n * t.cfg.lat.clwb_ns))
  end

(* The drain and the fence's own cost are two waits: a drain that
   suspends the thread makes the fence cost its program's one step, so
   the scheduler serves both in one pass. *)
let sfence t =
  t.c.sfences <- t.c.sfences + 1;
  (match t.trace with None -> () | Some tr -> trace_record t tr Trace.Sfence);
  let now = Sched.now t.sched in
  let tid = Sched.tid t.sched in
  ensure_fence_slot t tid;
  let target = t.fence_target.(tid) in
  if target > now then begin
    t.c.fence_wait_ns <- t.c.fence_wait_ns + (target - now);
    t.fence_wait_by_tid.(tid) <- t.fence_wait_by_tid.(tid) + (target - now)
  end;
  if target <= now || Sched.advance t.sched (target - now) then
    Sched.wait t.sched t.cfg.lat.sfence_ns
  else begin
    t.prog.(tid * prog_stride) <- fence_cost;
    Sched.suspend t.sched (target - now)
  end

(* The load completed: the re-check's wait is the program's last, and
   the resumed thread re-checks. *)
let loaded_step t p b =
  Array.unsafe_set p b recheck;
  Sched.finish t.sched;
  t.cfg.lat.meta_read_ns

(* A programmed thread's step at its own clock: the rest of its
   operation, run on from its stage as [validated_load] or [sfence]
   runs it inline, while the waits advance inline.  The wait that
   would suspend the thread ends the step: its stage is stored and the
   wait returned.  Indexing is unchecked: [spawn] sized [prog] for
   every thread id, and the orec offset was checked at issue.  A
   closure over [t], so that the scheduler reaches the step in one
   indirect call. *)
let stepper t =
  let step id =
    let p = t.prog and b = id * prog_stride in
    let stage = Array.unsafe_get p b in
    if stage = read_orec then begin
      let w = Int32.to_int (get32u t.meta.slots (Array.unsafe_get p (b + 1))) in
      Array.unsafe_set p (b + 4) w;
      if w land 1 = 0 && w <= Array.unsafe_get p (b + 2) then begin
        let addr = Array.unsafe_get p (b + 3) in
        let cost = load_issue t addr in
        Array.unsafe_set p (b + 5) (Pheap.get t.heap addr);
        if Sched.advance t.sched cost then loaded_step t p b
        else begin
          Array.unsafe_set p b loaded;
          cost
        end
      end
      else begin
        Array.unsafe_set p b stopped;
        -1
      end
    end
    else if stage = loaded then loaded_step t p b
    else begin
      assert (stage = fence_cost);
      Sched.finish t.sched;
      t.cfg.lat.sfence_ns
    end
  in
  step

(* Suspend the calling thread after a wait of [ns] with the rest of a
   validated load as its program, from [stage]; once it ends, the
   re-check, unless the orec word stopped the read before the load. *)
let[@inline never] program t ~stage ns off bound addr w v (out : int array) =
  let p = t.prog and b = Sched.tid t.sched * prog_stride in
  Array.unsafe_set p b stage;
  Array.unsafe_set p (b + 1) off;
  Array.unsafe_set p (b + 2) bound;
  Array.unsafe_set p (b + 3) addr;
  Array.unsafe_set p (b + 4) w;
  Array.unsafe_set p (b + 5) v;
  Sched.suspend t.sched ns;
  let w = Array.unsafe_get p (b + 4) in
  out.(0) <- w;
  Array.unsafe_get p b = recheck
  && begin
    out.(1) <- Array.unsafe_get p (b + 5);
    Int32.to_int (get32u t.meta.slots off) = w
  end

(* [Machine.validated_load]: the three operations of a TL2 read, a
   [meta_get], a [load] whose value is the word's at issue and a
   [meta_get] again, run inline while every wait advances inline.  The
   orec read's wait or the load's, whichever would suspend the thread
   first, suspends it with the rest as its program; the re-check's
   wait, the last, is a plain one.  Offsets and addresses are checked
   before anything runs, so a step cannot raise. *)
let validated_load t orec bound addr (out : int array) =
  let off = meta_offset t.meta orec in
  check_addr t addr;
  let s = t.sched and mr = t.cfg.lat.meta_read_ns in
  if Sched.advance s mr then begin
    let w = Int32.to_int (get32u t.meta.slots off) in
    out.(0) <- w;
    w land 1 = 0
    && w <= bound
    &&
    let cost = load_issue t addr in
    let v = Pheap.get t.heap addr in
    out.(1) <- v;
    if Sched.advance s cost then begin
      Sched.wait s mr;
      Int32.to_int (get32u t.meta.slots off) = w
    end
    else program t ~stage:loaded cost off bound addr w v out
  end
  else program t ~stage:read_orec mr off bound addr 0 0 out

let create cfg =
  let t = make cfg in
  Sched.set_program t.sched (stepper t);
  t

let spawn t f =
  let id = Sched.spawn t.sched f in
  let need = (id + 1) * prog_stride in
  if need > Array.length t.prog then begin
    let bigger = Array.make (max need (2 * Array.length t.prog)) 0 in
    Array.blit t.prog 0 bigger 0 (Array.length t.prog);
    t.prog <- bigger
  end;
  id

let run ?crash_at t =
  Sched.run ?crash_at t.sched;
  if Sched.crashed t.sched then
    match t.trace with
    | None -> ()
    | Some tr -> Trace.record tr ~at_ns:(Sched.now t.sched) ~tid:0 Trace.Crash

let now t = Sched.now t.sched

let crashed t = Sched.crashed t.sched

(* Arm dirty tracking over [lo, hi): subsequent [store]/[publish]
   writes inside the window mark their line and page.  Untimed
   [raw_write]s are never tracked (recovery must not re-dirty the
   window it restores).  Replaces any previous tracker; a [reboot]ed
   machine starts untracked. *)
let track_dirty t ~lo ~hi =
  if lo < 0 || hi > t.cfg.heap_words || hi <= lo then invalid_arg "Sim.track_dirty: bad window";
  let d = Dirty.create ~lo ~hi in
  t.dirty <- Some d;
  d

let fence_wait_ns_of t ~tid =
  if tid >= 0 && tid < Array.length t.fence_wait_by_tid then t.fence_wait_by_tid.(tid) else 0

let wpq_stall_ns_of t ~tid =
  if tid >= 0 && tid < Array.length t.wpq_stall_by_tid then t.wpq_stall_by_tid.(tid) else 0

(* Forget all timing state accumulated by an untimed setup phase —
   queue depths, fence targets and counters — while keeping memory
   contents and cache residency (a warm start).  Must be called before
   the first [spawn]/[run], never during one. *)
let reset_timing t =
  (* Settle deferred media writes first: server clocks restart below,
     so stale future [apply_at] stamps must not survive the epoch. *)
  (match t.media with
  | Some media -> Pending.apply ~cutoff:max_int t.pending media
  | None -> ());
  Pending.clear t.pending;
  Array.iter Server.reset t.wpq_nvm;
  Server.reset t.wpq_dram;
  Array.iter Server.reset t.rd_nvm;
  Server.reset t.rd_dram;
  Array.fill t.fence_target 0 (Array.length t.fence_target) 0;
  Array.fill t.fence_wait_by_tid 0 (Array.length t.fence_wait_by_tid) 0;
  Array.fill t.wpq_stall_by_tid 0 (Array.length t.wpq_stall_by_tid) 0;
  Cache.reset_stats t.l3;
  t.c.loads <- 0;
  t.c.stores <- 0;
  t.c.clwbs <- 0;
  t.c.sfences <- 0;
  t.c.fence_wait_ns <- 0;
  t.c.pdram_page_hits <- 0;
  t.c.pdram_page_misses <- 0

let persist_all t =
  match t.media with
  | None -> ()
  | Some media ->
    Pending.clear t.pending;
    Pheap.assign ~src:t.heap ~dst:media

(* The DES interleaves at operation granularity, so plain reads and
   CASes on the metadata space are atomic.  Orecs and the clock are
   lost on a crash anyway, so one zeroed buffer can serve machine after
   machine: each domain keeps at most one idle buffer, handed back by
   [release] and taken by the next [machine] call. *)
let spare_meta : meta Domain.DLS.key = Domain.DLS.new_key (fun () -> no_meta)

let ensure_meta t =
  if t.released then invalid_arg "Sim.machine: the machine was released";
  if t.meta == no_meta then begin
    let n = t.cfg.meta_words in
    let spare = Domain.DLS.get spare_meta in
    if spare.n = n then begin
      Domain.DLS.set spare_meta no_meta;
      t.meta <- spare
    end
    else
      t.meta <-
        {
          n;
          slots = Bytes.make (4 * n) '\000';
          pages = Bytes.make ((n + (1 lsl meta_page_bits) - 1) lsr meta_page_bits) '\000';
        }
  end

(* Zero the pages a machine wrote, so the buffer reads as fresh. *)
let zero_written meta =
  let page_bytes = 4 lsl meta_page_bits in
  for p = 0 to Bytes.length meta.pages - 1 do
    if Bytes.unsafe_get meta.pages p <> '\000' then begin
      let lo = p * page_bytes in
      Bytes.fill meta.slots lo (min page_bytes (Bytes.length meta.slots - lo)) '\000';
      Bytes.unsafe_set meta.pages p '\000'
    end
  done

(* The released buffer also replaces a spare of another size, so one
   odd-sized Sim does not stop recycling for every later one. *)
let release t =
  t.released <- true;
  let meta = t.meta in
  if meta != no_meta then begin
    t.meta <- no_meta;
    if (Domain.DLS.get spare_meta).n <> meta.n then begin
      zero_written meta;
      Domain.DLS.set spare_meta meta
    end
  end

let with_ t f = Fun.protect ~finally:(fun () -> release t) (fun () -> f t)

(* Apply the durability domain's survival rule after a power failure
   (or a clean shutdown, which is strictly weaker than eADR flush). *)
let surviving_media t =
  match t.media with
  | None -> invalid_arg "Sim.reboot: track_media is off"
  | Some media ->
    let image = Pheap.copy media in
    (* Whether heap words persist at all (battery-backed DRAM log pages
       count as persistent; the DRAM-ramdisk baseline does not). *)
    let persistent =
      match t.cfg.model.data_media with Config.Nvm -> true | Config.Dram -> false
    in
    (match t.cfg.model.persistence with
    | Config.Adr _ ->
      (* Deferred WPQ traffic: only entries the controller serviced
         strictly before the power failed reach the image.  Leaves
         [t.pending] untouched so reboot can be replayed. *)
      let cutoff =
        if Sched.crashed t.sched then
          match Sched.time_limit t.sched with
          | Some c -> c
          | None -> Sched.now t.sched
        else max_int
      in
      Pending.apply ~cutoff t.pending image
    | Config.Eadr | Config.Transient_cache ->
      (* Reserve power flushes resident dirty lines (eADR), or the
         cache arrays themselves ride out the failure and drain lazily
         (transiently persistent cache) — same survival rule, different
         energy accounting (see [Debt.reserve_energy_nj]). *)
      List.iter
        (fun line ->
          let base = Layout.addr_of_line line in
          if base < t.cfg.heap_words && persistent then begin
            let len = min Layout.words_per_line (t.cfg.heap_words - base) in
            Pheap.copy_range ~src:t.heap ~dst:image base len
          end)
        (Cache.dirty_lines t.l3));
    (* Full PDRAM: the battery-backed DRAM cache covers everything.
       Memory Mode has the same cache but no battery — and worse, its
       encryption key is lost on reboot, so nothing survives. *)
    if t.cfg.model.pdram_cache then begin
      if t.cfg.model.battery then Pheap.assign ~src:t.heap ~dst:image
      else Pheap.fill_zero image
    end;
    (* Non-persistent DRAM data: contents reset on reboot. *)
    if t.cfg.model.data_media = Config.Dram then Pheap.fill_zero image;
    image

(* The one boot path: a fresh machine whose heap and media both start
   as [image].  Log ranges are volatile placement metadata, not media:
   the region marks them again when it is formatted or attached. *)
let boot cfg image =
  let t = create cfg in
  Pheap.assign ~src:image ~dst:t.heap;
  Option.iter (fun media -> Pheap.assign ~src:image ~dst:media) t.media;
  t

(* Sparse image format: only touched chunks are written, so crash
   images of mostly-cold heaps stay small and fast.  Touched pages
   round-trip byte-identically (untouched pages are all-zero by
   construction on both sides).

   Layout: a header of four 4-byte big-endian ints (magic, heap words,
   chunk words, chunk count); then each chunk as its index and
   [chunk_words] words, every one 8 bytes little-endian, in ascending
   index order; then a 64-bit checksum of everything before it.
   Nothing follows the checksum, so the length is exact. *)
let image_magic = 0x50444D53 (* "PDMS" *)
let image_header = 16
let image_chunk_bytes = 8 * (1 + Pheap.chunk_words)

(* FNV-1a over 8-byte words: each step is a bijection of the running
   value, so any change to one word changes the sum. *)
let image_checksum b len =
  let h = ref 0xCBF29CE484222325L in
  for i = 0 to (len / 8) - 1 do
    h := Int64.mul (Int64.logxor !h (Bytes.get_int64_le b (8 * i))) 0x100000001B3L
  done;
  !h

let save_image t path =
  let image = surviving_media t in
  let count = ref 0 in
  Pheap.iter_touched image (fun _ _ -> incr count);
  let len = image_header + (!count * image_chunk_bytes) in
  let b = Bytes.create (len + 8) in
  Bytes.set_int32_be b 0 (Int32.of_int image_magic);
  Bytes.set_int32_be b 4 (Int32.of_int (Pheap.words image));
  Bytes.set_int32_be b 8 (Int32.of_int Pheap.chunk_words);
  Bytes.set_int32_be b 12 (Int32.of_int !count);
  let pos = ref image_header in
  let put v =
    Bytes.set_int64_le b !pos (Int64.of_int v);
    pos := !pos + 8
  in
  Pheap.iter_touched image (fun ci c ->
      put ci;
      Array.iter put c);
  Bytes.set_int64_le b len (image_checksum b len);
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b)

let load_image cfg path =
  let b = In_channel.with_open_bin path In_channel.input_all |> Bytes.unsafe_of_string in
  let corrupt ~at msg =
    raise (Machine.Corrupt_image (Printf.sprintf "Sim.load_image: %s: %s (offset %d)" path msg at))
  in
  let total = Bytes.length b in
  if total < image_header + 8 then corrupt ~at:total "truncated image";
  let header i = Int32.to_int (Bytes.get_int32_be b (4 * i)) in
  if header 0 <> image_magic then
    corrupt ~at:0 (Printf.sprintf "bad magic %#x, expected %#x" (header 0) image_magic);
  if header 1 <> cfg.Config.heap_words then
    corrupt ~at:4 (Printf.sprintf "image has %d words, config expects %d" (header 1)
                     cfg.Config.heap_words);
  if header 2 <> Pheap.chunk_words then
    corrupt ~at:8 (Printf.sprintf "image chunk size %d, expected %d" (header 2) Pheap.chunk_words);
  let nchunks = (cfg.Config.heap_words + Pheap.chunk_words - 1) / Pheap.chunk_words in
  let count = header 3 in
  if count < 0 || count > nchunks then
    corrupt ~at:12 (Printf.sprintf "%d chunks, the heap has %d" count nchunks);
  let len = image_header + (count * image_chunk_bytes) in
  if total <> len + 8 then
    corrupt ~at:(min total len) (Printf.sprintf "%d bytes, %d chunks need %d" total count (len + 8));
  if Bytes.get_int64_le b len <> image_checksum b len then corrupt ~at:len "checksum mismatch";
  let word at =
    let v = Bytes.get_int64_le b at in
    if Int64.of_int (Int64.to_int v) <> v then corrupt ~at "word out of range";
    Int64.to_int v
  in
  let chunk k =
    let at = image_header + (k * image_chunk_bytes) in
    (word at, Array.init Pheap.chunk_words (fun j -> word (at + 8 + (8 * j))))
  in
  let pairs = List.init count chunk in
  (* Ascending indices rule out duplicates; [of_touched] checks the range. *)
  ignore
    (List.fold_left
       (fun prev (ci, _) ->
         if ci <= prev then corrupt ~at:image_header "chunk indices not ascending";
         ci)
       (-1) pairs
      : int);
  let image =
    try Pheap.of_touched ~words:cfg.Config.heap_words pairs
    with Invalid_argument msg -> corrupt ~at:image_header ("malformed chunk: " ^ msg)
  in
  boot cfg image

let reboot t =
  let image = surviving_media t in
  (* The power failure lost [t]'s volatile metadata: hand its buffer to
     the machine being booted. *)
  release t;
  boot t.cfg image

(* HTM commit: one indivisible event.  Values land in the heap and
   their lines become (dirty) cache-resident, exactly as a committing
   Intel TSX transaction turns speculative L1 lines into ordinary dirty
   lines.  Timing: a flat commit cost plus a small per-line charge;
   capacity evictions bill the usual write-back paths. *)
let publish t addrs values n =
  (match t.trace with None -> () | Some tr -> trace_record t tr (Trace.Publish n));
  let now = Sched.now t.sched in
  let lines = ref 0 in
  for i = 0 to n - 1 do
    let addr = addrs.(i) in
    check_addr t addr;
    Pheap.set t.heap addr values.(i);
    (match t.dirty with None -> () | Some d -> Dirty.note d addr);
    t.c.stores <- t.c.stores + 1;
    let line = Layout.line_of_addr addr in
    let r = Cache.access_fast t.l3 ~line ~write:true in
    if r <> Cache.hit then begin
      incr lines;
      if r >= 0 then ignore (writeback_line t ~now r)
    end
  done;
  (* HTM-commit domain: the controller hardens the write set as one
     unit at retirement, so each distinct line lands in the media image
     before this call returns — a crash at any later instant keeps the
     whole commit.  Stale in-flight WPQ entries for the same lines are
     dropped (the hardened content supersedes whatever an earlier
     eviction captured).  The thread pays one NVM drain slot per line. *)
  if t.cfg.model.durable_publish then begin
    let touched = Hashtbl.create 16 in
    for i = 0 to n - 1 do
      Hashtbl.replace touched (Layout.line_of_addr addrs.(i)) ()
    done;
    (match t.media with
    | Some _ ->
      Pending.remove_lines t.pending (fun line -> Hashtbl.mem touched line);
      Hashtbl.iter (fun line () -> line_to_media t line) touched
    | None -> ());
    Sched.wait t.sched (Hashtbl.length touched * t.cfg.lat.nvm_wpq_service_ns)
  end;
  Sched.wait t.sched (30 + (2 * n) + (10 * !lines))

let[@inline never] meta_too_wide v =
  invalid_arg (Printf.sprintf "Sim: metadata value %d does not fit in 32 bits" v)

(* A value that does not fit raises before anything is stored. *)
let[@inline] meta_store meta i off v =
  if v < -0x8000_0000 || v > 0x7fff_ffff then meta_too_wide v;
  set32u meta.slots off (Int32.of_int v);
  Bytes.unsafe_set meta.pages (i lsr meta_page_bits) '\001'

(* The closures read [t.meta] on every call, so a facade taken before
   [release] fails the bounds check instead of sharing a recycled
   buffer. *)
let make_meta t =
  let lat = t.cfg.lat in
  let get i =
    Sched.wait t.sched lat.meta_read_ns;
    let meta = t.meta in
    Int32.to_int (get32u meta.slots (meta_offset meta i))
  in
  let set i v =
    Sched.wait t.sched lat.meta_write_ns;
    let meta = t.meta in
    meta_store meta i (meta_offset meta i) v
  in
  let cas i expected v =
    Sched.wait t.sched lat.meta_write_ns;
    let meta = t.meta in
    let off = meta_offset meta i in
    if Int32.to_int (get32u meta.slots off) = expected then begin
      meta_store meta i off v;
      true
    end
    else false
  in
  let fetch_add i delta =
    Sched.wait t.sched lat.meta_write_ns;
    let meta = t.meta in
    let off = meta_offset meta i in
    let old = Int32.to_int (get32u meta.slots off) in
    meta_store meta i off (old + delta);
    old
  in
  (get, set, cas, fetch_add)

let machine t : Machine.t =
  ensure_meta t;
  let meta_get, meta_set, meta_cas, meta_fetch_add = make_meta t in
  let needs_fence =
    match t.cfg.model.persistence with
    | Config.Adr { fences } -> fences
    | Config.Eadr | Config.Transient_cache -> false
  in
  {
    Machine.words = t.cfg.heap_words;
    meta_words = t.cfg.meta_words;
    needs_flush = Config.needs_flush t.cfg.model;
    needs_fence;
    durable_publish = t.cfg.model.durable_publish;
    load = (fun addr -> load t addr);
    validated_load = (fun orec bound addr out -> validated_load t orec bound addr out);
    store = (fun addr v -> store t addr v);
    clwb = (fun addr -> clwb t addr);
    clwb_many = (fun addrs n -> clwb_many t addrs n);
    sfence = (fun () -> sfence t);
    meta_get;
    meta_set;
    meta_cas;
    meta_fetch_add;
    exclusive = (fun () -> not (Sched.running t.sched));
    tid = (fun () -> Sched.tid t.sched);
    now_ns = (fun () -> float_of_int (Sched.now t.sched));
    pause = (fun ns -> Sched.wait t.sched ns);
    raw_read =
      (fun addr ->
        check_addr t addr;
        Pheap.get t.heap addr);
    (* Untimed recovery/setup writes deliberately bypass dirty tracking:
       recovery replay must not re-mark the window it just restored. *)
    raw_write =
      (fun addr v ->
        check_addr t addr;
        Pheap.set t.heap addr v);
    (* The range decides placement only: attaching a region again (a
       recovery after a pre-recovery check) marks the same range
       again, which changes nothing. *)
    mark_log_range =
      (fun lo hi ->
        t.log_lo <- lo;
        t.log_hi <- hi);
    publish = (fun addrs values n -> publish t addrs values n);
  }

module Debt = struct
  type sim = t

  type t = {
    wpq_lines : int;
    dirty_l3_lines : int;
    dirty_dram_pages : int;
    armed_log_lines : int;
  }

  let wpq_lines (sim : sim) =
    let now = Sched.now sim.sched in
    Array.fold_left (fun acc s -> acc + Server.inflight_at s ~now) 0 sim.wpq_nvm

  let zero = { wpq_lines = 0; dirty_l3_lines = 0; dirty_dram_pages = 0; armed_log_lines = 0 }

  (* Battery-backed log pages: on failure, the armed logs must be
     written to NVM.  The PTM owns the log format and counts them. *)
  let armed (sim : sim) armed_log_lines =
    if sim.cfg.model.log_in_dram then armed_log_lines () else 0

  let pending_lines sim ~armed_log_lines = wpq_lines sim + armed sim armed_log_lines

  let sample (sim : sim) ~armed_log_lines =
    let persistent = sim.cfg.model.data_media = Config.Nvm in
    let dirty_l3_lines = if persistent then List.length (Cache.dirty_lines sim.l3) else 0 in
    let dirty_dram_pages =
      match sim.page_cache with
      | Some pc when sim.cfg.model.battery -> List.length (Repro_util.Lru.dirty_keys pc)
      | Some _ | None -> 0
    in
    {
      wpq_lines = wpq_lines sim;
      dirty_l3_lines;
      dirty_dram_pages;
      armed_log_lines = armed sim armed_log_lines;
    }

  (* Per-line energy estimates (nJ): an Optane line write is the
     dominant term; a DRAM page flush is 64 line reads + 64 NVM line
     writes.  Values follow published per-bit access-energy estimates
     for 3D-XPoint-class memory (order-of-magnitude accounting; the
     *relative* demands of the domains are the result). *)
  let nvm_line_write_nj = 56.0
  let dram_line_read_nj = 6.5

  (* Transiently persistent cache: a dirty line only has to be
     *retained* in the (now persistent) cache array until lazy drain —
     no SRAM read-out, no burst NVM write on the reserve budget.
     Retention leakage over the ride-through window is roughly a DRAM
     line read's worth of energy, an order of magnitude below eADR's
     read+write per line. *)
  let cache_line_retain_nj = 6.5
  let lines_per_page = Layout.words_per_page / Layout.words_per_line

  let reserve_energy_nj (model : Config.model) t =
    let wpq = float_of_int t.wpq_lines *. nvm_line_write_nj in
    match model.persistence with
    | Config.Adr _ -> wpq
    | Config.Transient_cache -> wpq +. (float_of_int t.dirty_l3_lines *. cache_line_retain_nj)
    | Config.Eadr ->
      let l3 = float_of_int t.dirty_l3_lines *. (nvm_line_write_nj +. dram_line_read_nj) in
      let pages =
        float_of_int (t.dirty_dram_pages * lines_per_page)
        *. (nvm_line_write_nj +. dram_line_read_nj)
      in
      let logs = float_of_int t.armed_log_lines *. (nvm_line_write_nj +. dram_line_read_nj) in
      wpq +. l3 +. pages +. logs
end

module Stats = struct
  type sim = t

  type t = {
    loads : int;
    stores : int;
    l3_hits : int;
    l3_misses : int;
    writebacks : int;
    clwbs : int;
    sfences : int;
    fence_wait_ns : int;
    wpq_stall_ns : int;
    fence_wait_ns_by_tid : int array;
    wpq_stall_ns_by_tid : int array;
    nvm_reads : int;
    dram_reads : int;
    pdram_page_hits : int;
    pdram_page_misses : int;
    inline_advances : int;
    context_switches : int;
    settled_waits : int;
  }

  let get (sim : sim) =
    {
      loads = sim.c.loads;
      stores = sim.c.stores;
      l3_hits = Cache.hits sim.l3;
      l3_misses = Cache.misses sim.l3;
      writebacks = Cache.writebacks sim.l3;
      clwbs = sim.c.clwbs;
      sfences = sim.c.sfences;
      fence_wait_ns = sim.c.fence_wait_ns;
      wpq_stall_ns =
        Array.fold_left (fun acc s -> acc + Server.stall_ns s) 0 sim.wpq_nvm
        + Server.stall_ns sim.wpq_dram;
      fence_wait_ns_by_tid = Array.copy sim.fence_wait_by_tid;
      wpq_stall_ns_by_tid = Array.copy sim.wpq_stall_by_tid;
      nvm_reads = Array.fold_left (fun acc s -> acc + Server.requests s) 0 sim.rd_nvm;
      dram_reads = Server.requests sim.rd_dram;
      pdram_page_hits = sim.c.pdram_page_hits;
      pdram_page_misses = sim.c.pdram_page_misses;
      inline_advances = Sched.inline_advances sim.sched;
      context_switches = Sched.context_switches sim.sched;
      settled_waits = Sched.settled_waits sim.sched;
    }

  (* Scalar fields by stable export name — the per-tid arrays are
     deliberately excluded (their length depends on thread count), and
     so are the scheduler counters, which measure the simulator rather
     than the machine and would otherwise enter every digest. *)
  let fields (t : t) =
    [
      ("loads", t.loads);
      ("stores", t.stores);
      ("l3_hits", t.l3_hits);
      ("l3_misses", t.l3_misses);
      ("writebacks", t.writebacks);
      ("clwbs", t.clwbs);
      ("sfences", t.sfences);
      ("fence_wait_ns", t.fence_wait_ns);
      ("wpq_stall_ns", t.wpq_stall_ns);
      ("nvm_reads", t.nvm_reads);
      ("dram_reads", t.dram_reads);
      ("pdram_page_hits", t.pdram_page_hits);
      ("pdram_page_misses", t.pdram_page_misses);
    ]
end
