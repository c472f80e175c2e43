(* Per-transaction phase profiler.

   Pure observation: it samples the machine's virtual clock at phase
   boundaries and never calls a timed operation itself, so attaching a
   profiler perturbs no simulated time.  Accounting invariant: inside a
   transaction every instant is charged to exactly one phase (the
   attempt runs on a per-thread phase stack whose base is [Other]), so
   per-thread phase nanoseconds sum to the thread's in-transaction
   virtual time exactly.

   Determinism: counters and histograms are updated in program order of
   the (deterministic) DES interleaving; spans land in a ring buffer in
   finish order.  Same (spec, model, algorithm, threads, seed) runs
   produce bit-identical profiles. *)

module Histogram = Repro_util.Histogram

type phase =
  | Read_set
  | Log_append
  | Clwb_issue
  | Fence_wait
  | Wpq_stall
  | Coalesce
  | Write_back
  | Validate
  | Backoff
  | Recovery
  (* FAMS msync phases: dirty-set journaling sweep, commit-record
     publish, journal-to-home apply. *)
  | Snap_sweep
  | Snap_publish
  | Snap_apply
  | Other

let phase_index = function
  | Read_set -> 0
  | Log_append -> 1
  | Clwb_issue -> 2
  | Fence_wait -> 3
  | Wpq_stall -> 4
  | Coalesce -> 5
  | Write_back -> 6
  | Validate -> 7
  | Backoff -> 8
  | Recovery -> 9
  | Snap_sweep -> 10
  | Snap_publish -> 11
  | Snap_apply -> 12
  | Other -> 13

let nphases = 14

let all_phases =
  [
    Read_set; Log_append; Clwb_issue; Fence_wait; Wpq_stall; Coalesce; Write_back; Validate;
    Backoff; Recovery; Snap_sweep; Snap_publish; Snap_apply; Other;
  ]

let phase_name = function
  | Read_set -> "read-set"
  | Log_append -> "log-append"
  | Clwb_issue -> "clwb-issue"
  | Fence_wait -> "fence-wait"
  | Wpq_stall -> "wpq-stall"
  | Coalesce -> "coalesce"
  | Write_back -> "write-back"
  | Validate -> "validate"
  | Backoff -> "backoff"
  | Recovery -> "recovery"
  | Snap_sweep -> "snap-sweep"
  | Snap_publish -> "snap-publish"
  | Snap_apply -> "snap-apply"
  | Other -> "other"

(* Span ring labels: phase indices, then the two transaction outcomes. *)
let label_txn = nphases
let label_txn_failed = nphases + 1

let label_name i =
  if i = label_txn then "txn"
  else if i = label_txn_failed then "txn-failed"
  else phase_name (List.nth all_phases i)

type per_thread = {
  ns : int array; (* per-phase accumulated virtual ns *)
  count : int array; (* per-phase slice count *)
  fences : int array; (* sfences issued while in the phase *)
  flushes : int array; (* clwbs issued while in the phase *)
  hist : Histogram.t array; (* per-phase slice-duration histogram *)
  txn_hist : Histogram.t; (* whole-transaction durations *)
  mutable stack : int list; (* phase stack, top first; [] outside txns *)
  mutable last_switch_ns : int;
  mutable txn_start_ns : int;
  mutable txn_ns : int;
  mutable commits : int;
  mutable aborts : int; (* failed attempts *)
  mutable fences_saved : int; (* ordering points elided by coalescing *)
  mutable flushes_saved : int; (* clwbs elided by line dedup/batching *)
}

type span = { tid : int; label : string; start_ns : int; stop_ns : int }

type t = {
  now_ns : unit -> float;
  cur_tid : unit -> int;
  wpq_stall_probe : (int -> int) option;
  mutable slots : per_thread option array;
  (* span ring, flat arrays in finish order *)
  sp_tid : int array;
  sp_label : int array;
  sp_start : int array;
  sp_stop : int array;
  sp_capacity : int;
  mutable sp_next : int; (* total spans ever recorded *)
}

let create ?(span_capacity = 1 lsl 16) ?wpq_stall_probe (m : Machine.t) =
  {
    now_ns = m.Machine.now_ns;
    cur_tid = m.Machine.tid;
    wpq_stall_probe;
    slots = Array.make 8 None;
    sp_tid = Array.make (max 1 span_capacity) 0;
    sp_label = Array.make (max 1 span_capacity) 0;
    sp_start = Array.make (max 1 span_capacity) 0;
    sp_stop = Array.make (max 1 span_capacity) 0;
    sp_capacity = max 1 span_capacity;
    sp_next = 0;
  }

let now t = int_of_float (t.now_ns ())

let fresh_thread () =
  {
    ns = Array.make nphases 0;
    count = Array.make nphases 0;
    fences = Array.make nphases 0;
    flushes = Array.make nphases 0;
    hist = Array.init nphases (fun _ -> Histogram.create ());
    txn_hist = Histogram.create ();
    stack = [];
    last_switch_ns = 0;
    txn_start_ns = 0;
    txn_ns = 0;
    commits = 0;
    aborts = 0;
    fences_saved = 0;
    flushes_saved = 0;
  }

let slot t tid =
  if tid >= Array.length t.slots then begin
    let bigger = Array.make (2 * (tid + 1)) None in
    Array.blit t.slots 0 bigger 0 (Array.length t.slots);
    t.slots <- bigger
  end;
  match t.slots.(tid) with
  | Some pt -> pt
  | None ->
    let pt = fresh_thread () in
    t.slots.(tid) <- Some pt;
    pt

let find_slot t tid = if tid < Array.length t.slots then t.slots.(tid) else None

let push_span t tid label start stop =
  let i = t.sp_next mod t.sp_capacity in
  t.sp_tid.(i) <- tid;
  t.sp_label.(i) <- label;
  t.sp_start.(i) <- start;
  t.sp_stop.(i) <- stop;
  t.sp_next <- t.sp_next + 1

(* Charge the time since the last boundary to the top-of-stack phase. *)
let settle pt at =
  (match pt.stack with
  | idx :: _ -> pt.ns.(idx) <- pt.ns.(idx) + (at - pt.last_switch_ns)
  | [] -> ());
  pt.last_switch_ns <- at

(* ---------- transaction lifecycle ---------- *)

let txn_begin t =
  let tid = t.cur_tid () in
  let pt = slot t tid in
  let at = now t in
  pt.txn_start_ns <- at;
  pt.last_switch_ns <- at;
  pt.stack <- [ phase_index Other ];
  pt.count.(phase_index Other) <- pt.count.(phase_index Other) + 1

let txn_end t ~committed =
  let tid = t.cur_tid () in
  let pt = slot t tid in
  let at = now t in
  settle pt at;
  pt.stack <- [];
  let dur = at - pt.txn_start_ns in
  pt.txn_ns <- pt.txn_ns + dur;
  Histogram.record pt.txn_hist dur;
  if committed then pt.commits <- pt.commits + 1;
  push_span t tid (if committed then label_txn else label_txn_failed) pt.txn_start_ns at

let note_abort t =
  let pt = slot t (t.cur_tid ()) in
  pt.aborts <- pt.aborts + 1

(* Credit side of the coalescing ledger: how many clwbs/sfences a naive
   per-entry commit would have issued beyond what this commit actually
   did.  Pure bookkeeping — no clock sample, no timed operation. *)
let note_saved t ~fences ~flushes =
  let pt = slot t (t.cur_tid ()) in
  pt.fences_saved <- pt.fences_saved + fences;
  pt.flushes_saved <- pt.flushes_saved + flushes

(* ---------- slices ---------- *)

(* The one slice recorder.  Run [f] as a slice of phase [idx] on the
   calling thread: the time since the last boundary goes to the
   enclosing phase, [idx] sits on the phase stack while [f] runs, and
   the close charges [idx] its exclusive time, one slice, the
   [fences]/[flushes] the slice issued and its duration, then pushes
   the span.  A slice that issues flushes, measured by a stall probe,
   moves its WPQ backpressure share (the probe's delta) to
   [Wpq_stall]. *)
let record t idx ~fences ~flushes f =
  let tid = t.cur_tid () in
  let pt = slot t tid in
  let start = now t in
  settle pt start;
  pt.stack <- idx :: pt.stack;
  let probe = if flushes > 0 then t.wpq_stall_probe else None in
  let s0 = match probe with Some probe -> probe tid | None -> 0 in
  let finish () =
    let stop = now t in
    settle pt stop;
    pt.stack <- (match pt.stack with _ :: rest -> rest | [] -> []);
    let stall =
      match probe with Some probe -> max 0 (min (probe tid - s0) (stop - start)) | None -> 0
    in
    pt.ns.(idx) <- pt.ns.(idx) - stall;
    pt.count.(idx) <- pt.count.(idx) + 1;
    pt.fences.(idx) <- pt.fences.(idx) + fences;
    pt.flushes.(idx) <- pt.flushes.(idx) + flushes;
    Histogram.record pt.hist.(idx) (stop - start - stall);
    if stall > 0 then begin
      let wi = phase_index Wpq_stall in
      pt.ns.(wi) <- pt.ns.(wi) + stall;
      pt.count.(wi) <- pt.count.(wi) + 1;
      Histogram.record pt.hist.(wi) stall
    end;
    push_span t tid idx start stop
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

let with_phase t phase f = record t (phase_index phase) ~fences:0 ~flushes:0 f
let leaf_flush t phase ~flushes f = record t (phase_index phase) ~fences:0 ~flushes f
let leaf_fence t phase f = record t (phase_index phase) ~fences:1 ~flushes:0 f

(* ---------- read-out ---------- *)

let tids t =
  let acc = ref [] in
  for tid = Array.length t.slots - 1 downto 0 do
    if t.slots.(tid) <> None then acc := tid :: !acc
  done;
  !acc

let phase_ns t ~tid phase =
  match find_slot t tid with None -> 0 | Some pt -> pt.ns.(phase_index phase)

let phase_count t ~tid phase =
  match find_slot t tid with None -> 0 | Some pt -> pt.count.(phase_index phase)

let phase_fences t ~tid phase =
  match find_slot t tid with None -> 0 | Some pt -> pt.fences.(phase_index phase)

let phase_flushes t ~tid phase =
  match find_slot t tid with None -> 0 | Some pt -> pt.flushes.(phase_index phase)

let phase_hist t ~tid phase =
  match find_slot t tid with
  | None -> Histogram.create ()
  | Some pt -> pt.hist.(phase_index phase)

let txn_ns t ~tid = match find_slot t tid with None -> 0 | Some pt -> pt.txn_ns
let commits t ~tid = match find_slot t tid with None -> 0 | Some pt -> pt.commits
let aborts t ~tid = match find_slot t tid with None -> 0 | Some pt -> pt.aborts
let fences_saved t ~tid = match find_slot t tid with None -> 0 | Some pt -> pt.fences_saved
let flushes_saved t ~tid = match find_slot t tid with None -> 0 | Some pt -> pt.flushes_saved

let txn_hist t ~tid =
  match find_slot t tid with None -> Histogram.create () | Some pt -> pt.txn_hist

let total_phase_ns t ~tid =
  match find_slot t tid with None -> 0 | Some pt -> Array.fold_left ( + ) 0 pt.ns

(* ---------- run-level read-out ---------- *)

let run_sum t f = List.fold_left (fun acc tid -> acc + f t ~tid) 0 (tids t)

type run_phase = { count : int; ns : int; fences : int; flushes : int }

let run_phase t phase =
  let sum f = run_sum t (fun t ~tid -> f t ~tid phase) in
  {
    count = sum phase_count;
    ns = sum phase_ns;
    fences = sum phase_fences;
    flushes = sum phase_flushes;
  }

let run_total t =
  List.fold_left
    (fun acc phase ->
      let r = run_phase t phase in
      {
        count = acc.count + r.count;
        ns = acc.ns + r.ns;
        fences = acc.fences + r.fences;
        flushes = acc.flushes + r.flushes;
      })
    { count = 0; ns = 0; fences = 0; flushes = 0 }
    all_phases

let merged_phase_hist t phase =
  Histogram.merge_list (List.map (fun tid -> phase_hist t ~tid phase) (tids t))

let spans_recorded t = t.sp_next

let spans_from t mark =
  let kept = min (min t.sp_next t.sp_capacity) (max 0 (t.sp_next - mark)) in
  let first = t.sp_next - kept in
  List.init kept (fun i ->
      let j = (first + i) mod t.sp_capacity in
      {
        tid = t.sp_tid.(j);
        label = label_name t.sp_label.(j);
        start_ns = t.sp_start.(j);
        stop_ns = t.sp_stop.(j);
      })

let spans t = spans_from t 0
let spans_since t mark = spans_from t mark
