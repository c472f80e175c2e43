(* Undo ("orec-eager"): orecs are acquired at first write, and the old
   value is appended to a persistent undo log and fenced before each
   in-place store — O(W) fences, the cost the paper blames for undo
   logging losing to redo logging.  The durable commit point is the
   log-status clear. *)

open Ptm_core

(* A serial transaction owns no orec, and its shared read is a load. *)
let read tx addr =
  if (not tx.serial) && owned_by_me tx addr then tx.ptm.m.Machine.load addr
  else read_shared tx addr

(* Write back and fence one undo-log line.  Injected ordering bug
   (undo arm of reorder-log-apply): entries are armed without their own
   write-back and fence, so the in-place store can become durable
   before the undo entry that would roll it back. *)
let persist_entry_line t addr =
  if t.inject <> Some Reorder_log_apply then begin
    flush t addr;
    fence t
  end

(* First write to [addr]: persist (addr, old) before the in-place
   store. *)
let log_old_value tx addr =
  let t = tx.ptm in
  if Int_vec.length tx.uvec = 0 then begin
    (* The first logged word raises the status.  Disarm the stale
       first entry left over from the previous transaction BEFORE
       raising it: otherwise a crash in between makes recovery roll
       back with the old transaction's entries, undoing committed
       work. *)
    let first = log_entry tx 0 in
    t.m.Machine.store first 0;
    flush t first;
    fence t;
    write_status tx Pmem.Log.undo_active
  end;
  let idx = Int_vec.length tx.uvec / 2 in
  if idx >= t.log_capacity then raise Log_overflow;
  let old = t.m.Machine.load addr in
  Int_table.replace tx.wmap addr 0;
  Int_vec.push tx.uvec addr;
  Int_vec.push tx.uvec old;
  let pos = log_entry tx idx in
  (* Arm the entry last: until [addr] lands, recovery's scan stops at
     the zero slot, so a crash amid these stores can never roll back
     with a stale [old] (the address slot may hold garbage reused from
     an earlier transaction). *)
  if Layout.line_of_addr (pos + 2) <> Layout.line_of_addr pos then begin
    (* The sentinel lives on the next cache line.  Its line must be
       durable before the armed entry's line: flushes to distinct lines
       can persist out of order, and a surviving armed entry next to a
       stale non-zero successor would let recovery scan on into a
       previous transaction's entries. *)
    t.m.Machine.store (pos + 2) 0;
    persist_entry_line t (pos + 2);
    t.m.Machine.store (pos + 1) old;
    t.m.Machine.store pos addr;
    persist_entry_line t pos
  end
  else begin
    t.m.Machine.store (pos + 1) old;
    t.m.Machine.store (pos + 2) 0 (* sentinel *);
    t.m.Machine.store pos addr;
    persist_entry_line t (Layout.addr_of_line (Layout.line_of_addr pos))
  end

let write tx addr value =
  assert (addr > 0);
  acquire_orec_eager tx addr;
  if not (Int_table.mem tx.wmap addr) then log_old_value tx addr;
  tx.ptm.m.Machine.store addr value

(* The logged addresses, newest first. *)
let iter_logged tx f = Int_vec.iter_rev_pairs (fun addr _ -> f addr) tx.uvec

let restore tx =
  let t = tx.ptm in
  Int_vec.iter_rev_pairs (fun addr old -> t.m.Machine.store addr old) tx.uvec

let abort tx =
  let t = tx.ptm in
  (match t.profiler with
  | None -> restore tx
  | Some p -> Profile.with_phase p Profile.Write_back (fun () -> restore tx));
  if Int_vec.length tx.uvec > 0 then begin
    ignore (flush_written_lines tx (iter_logged tx) : int);
    write_status tx Pmem.Log.idle
  end;
  release_acquired_to_previous tx

let check_reads tx = if validate_reads tx then 0 else -1

let try_commit tx =
  let n = Int_vec.length tx.uvec / 2 in
  let wv = clock_next tx.ptm in
  validated tx check_reads >= 0
  && begin
    (* Data durable before the commit point (the status clear). *)
    let data_flushes = flush_written_lines tx (iter_logged tx) in
    write_status tx Pmem.Log.idle;
    (* Naive issues clwb+fence per written word; coalesced, one fence. *)
    note_savings tx ~naive:n ~flushes:data_flushes ~fences:1;
    release_acquired_to tx (version_word wv);
    note_commit tx n ~logged:true;
    true
  end
