(* Redo ("orec-lazy"): writes go to a per-thread persistent redo log
   with a volatile index, orecs are acquired at commit, and the durable
   commit point is the flushed log-status word, after which values are
   written back in place.  O(1) fences per transaction. *)

open Ptm_core

(* Write-set lookups run on every transactional op: [Int_table.find]
   returns the [absent] sentinel on a miss, so neither path raises or
   boxes.  A read-only prefix (the common case) skips the probe. *)
let read tx addr =
  if Int_table.length tx.wmap = 0 then read_shared tx addr
  else
    let idx = Int_table.find tx.wmap addr ~absent in
    if idx = absent then read_shared tx addr
    else begin
      (* Read-own-write: the index lives in DRAM, the value in the
         persistent log — model the log lookup as a real load. *)
      ignore (tx.ptm.m.Machine.load (log_entry tx idx + 1));
      Int_vec.get tx.vvals idx
    end

let write tx addr value =
  assert (addr > 0);
  let t = tx.ptm in
  let idx = Int_table.find tx.wmap addr ~absent in
  if idx <> absent then begin
    (* Update the log entry in place (hash-table log, §I). *)
    Int_vec.set tx.vvals idx value;
    t.m.Machine.store (log_entry tx idx + 1) value
  end
  else begin
    let idx = Int_vec.length tx.vaddrs in
    if idx >= t.log_capacity then raise Log_overflow;
    buffer_append tx addr value;
    let pos = log_entry tx idx in
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

let abort = release_acquired_to_previous (* orecs are only locked during commit *)

(* Persist the [n]-entry log, entries before status; returns the clwbs
   issued. *)
let persist_log tx n =
  let t = tx.ptm in
  if not t.m.Machine.needs_flush then 0
  else if not t.coalesce then begin
    (* Naive per-entry ordering: every entry's line is written back and
       fenced on its own, then the sentinel. *)
    for i = 0 to n do
      clwb1 t (log_entry tx i);
      fence t
    done;
    n + 1
  end
  else begin
    (* Batched append: one vectored sweep over the log lines (only the
       unflushed tail under Incremental timing), then a single ordering
       fence. *)
    let first =
      match t.flush_timing with
      | At_commit -> Layout.line_of_addr (log_entry tx 0)
      | Incremental -> tx.log_flushed_upto
    in
    let k = Layout.line_of_addr (log_entry tx n) - first + 1 in
    if k > 0 then begin
      ensure_scratch tx k;
      for i = 0 to k - 1 do
        tx.lscratch.(i) <- Layout.addr_of_line (first + i)
      done;
      clwb_batch t tx.lscratch k
    end;
    fence t;
    max k 0
  end

let write_back tx n =
  let t = tx.ptm in
  for i = 0 to n - 1 do
    t.m.Machine.store (Int_vec.get tx.vaddrs i) (Int_vec.get tx.vvals i)
  done

let try_commit tx =
  let t = tx.ptm in
  let n = Int_vec.length tx.vaddrs in
  let wv = validated tx acquire_write_set in
  wv >= 0
  && begin
    (* 1. Persist the log; 2. the durable commit point. *)
    let log_flushes =
      match t.inject with
      | Some Reorder_log_apply ->
        (* Injected ordering bug: the durable commit point is raised
           before the log entries are persistent.  A crash in between
           makes recovery replay whatever stale entries the media still
           holds past the status line. *)
        write_status tx Pmem.Log.redo_committed;
        persist_log tx n
      | _ ->
        let k = persist_log tx n in
        write_status tx Pmem.Log.redo_committed;
        k
    in
    (* 3. Write back to home locations; data durable before the orecs
       are released. *)
    (match t.profiler with
    | None -> write_back tx n
    | Some p -> Profile.with_phase p Profile.Write_back (fun () -> write_back tx n));
    let data_flushes = flush_written_lines tx (fun f -> Int_vec.iter f tx.vaddrs) in
    (* 4. Make the writes visible, then retire the log. *)
    release_acquired_to tx (version_word wv);
    write_status tx Pmem.Log.idle;
    (* The naive path issues clwb+fence per log entry, per sentinel and
       per written word, plus the two status updates — (2n+3) of each.
       Coalesced: one log fence, the data fence and two status fences. *)
    note_savings tx ~naive:((2 * n) + 3) ~flushes:(log_flushes + data_flushes + 2) ~fences:4;
    note_commit tx n ~logged:true;
    true
  end
