(* HTM ("orec-htm", the paper's §V future-work mode).

   Emulates a TSX-style hardware transaction under an eADR-class
   domain: writes stay speculative (volatile buffer, no persistent
   log); the commit publishes every written word as one indivisible
   machine event, at which point the lines are both visible and inside
   the durability domain.  Capacity is bounded like a real L1-resident
   write set; exceeding it (or repeated conflicts) falls back to the
   redo STM path for that attempt. *)

open Ptm_core

let write_line_cap = 128
let read_cap = 1024
let fallback_attempts = 4

let read tx addr =
  if tx.shared_reads >= read_cap && not (Int_table.mem tx.wmap addr) then
    raise Conflict;
  buffered_read tx addr

let write tx addr value =
  assert (addr > 0);
  if not (buffer_overwrite tx addr value) then begin
    let line = Layout.line_of_addr addr in
    if not (Int_table.mem tx.wlines line) then begin
      if Int_table.length tx.wlines >= write_line_cap then raise Conflict;
      Int_table.replace tx.wlines line 0
    end;
    buffer_append tx addr value
  end

let abort = release_acquired_to_previous (* orecs are only locked during commit *)

(* The indivisible hardware commit. *)
let publish tx n =
  let addrs = Array.make n 0 and values = Array.make n 0 in
  for i = 0 to n - 1 do
    addrs.(i) <- Int_vec.get tx.vaddrs i;
    values.(i) <- Int_vec.get tx.vvals i
  done;
  tx.ptm.m.Machine.publish addrs values n

let try_commit tx =
  let t = tx.ptm in
  let n = Int_vec.length tx.vaddrs in
  let wv = validated tx acquire_write_set in
  wv >= 0
  && begin
    (match t.profiler with
    | None -> publish tx n
    | Some p -> Profile.with_phase p Profile.Write_back (fun () -> publish tx n));
    release_acquired_to tx (version_word wv);
    note_commit tx n ~logged:false;
    true
  end
