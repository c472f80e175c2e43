(* MOD, minimally ordered durable structures (Haria et al.).

   Every written word is either freshly allocated this transaction
   (shadow-class, unreachable from the published structure) or the one
   home-location word that swings the structure's root to the new
   version (publish-class).  Commit needs exactly one ordering point:
   write the shadow nodes in place, sweep their lines with vectored
   clwb, fence once, and store the 8-byte root.  The root's trailing
   clwb is deliberately unfenced — recovery reads whichever root made it
   to media, giving {e buffered} durable linearizability.

   Writes are buffered volatile until commit.  A second distinct
   home-location word (bank transfers, multi-index TPC-C transactions)
   is not a MOD shape: the buffer is materialized into the persistent
   redo log and the attempt continues on the redo path.  Shadow nodes
   need no ownership records — private until the swap, immutable after
   it — so conflict detection rides on the root word's orec alone. *)

open Ptm_core

let is_fresh tx addr =
  tx.in_alloc
  ||
  let n = Int_vec.length tx.fresh in
  let rec go i =
    i < n
    && ((addr >= Int_vec.get tx.fresh i && addr < Int_vec.get tx.fresh (i + 1)) || go (i + 2))
  in
  go 0

let read tx addr = buffered_read tx addr

(* Materialize the volatile write buffer into the persistent redo log
   and continue this attempt as a redo transaction.  The volatile index
   (wmap/vaddrs/vvals) is already in redo's shape, so only the log
   entries themselves need to be emitted. *)
let emit_log tx n =
  let t = tx.ptm in
  for i = 0 to n - 1 do
    let pos = log_entry tx i in
    t.m.Machine.store pos (Int_vec.get tx.vaddrs i);
    t.m.Machine.store (pos + 1) (Int_vec.get tx.vvals i)
  done;
  t.m.Machine.store (log_entry tx n) 0 (* sentinel *)

let fallback tx =
  let t = tx.ptm in
  let n = Int_vec.length tx.vaddrs in
  (* The volatile buffer is unbounded (shadow writes never touch the
     log); only a fallback must fit the persistent redo log. *)
  if n >= t.log_capacity then raise Log_overflow;
  (match t.profiler with
  | None -> emit_log tx n
  | Some p -> Profile.with_phase p Profile.Log_append (fun () -> emit_log tx n));
  tx.mode <- Redo

let write tx addr value =
  assert (addr > 0);
  if not (buffer_overwrite tx addr value) then begin
    let fresh = is_fresh tx addr in
    if (not fresh) && tx.pub_addr >= 0 && tx.pub_addr <> addr then begin
      (* Second distinct home-location word: not a single-root-swap
         shape.  Hand the whole attempt to the redo path. *)
      fallback tx;
      Redo_alg.write tx addr value
    end
    else begin
      if not fresh then tx.pub_addr <- addr;
      buffer_append tx addr value
    end
  end

let abort = release_acquired_to_previous (* orecs are only locked during commit *)

(* Only the publish word needs an ownership record: shadow nodes are
   private until the swap and immutable after. *)
let acquire_root tx =
  if tx.pub_addr >= 0 then acquire_orec tx tx.pub_addr;
  commit_version tx

(* A single store charged to [Write_back] when profiling. *)
let prof_store t a v =
  match t.profiler with
  | None -> t.m.Machine.store a v
  | Some p -> Profile.with_phase p Profile.Write_back (fun () -> t.m.Machine.store a v)

let shadow_stores tx n =
  let t = tx.ptm in
  for i = 0 to n - 1 do
    let a = Int_vec.get tx.vaddrs i in
    if a <> tx.pub_addr then t.m.Machine.store a (Int_vec.get tx.vvals i)
  done

(* One clwb sweep over the shadow lines, then THE fence; returns the
   clwbs issued. *)
let sweep tx =
  let t = tx.ptm in
  if not t.m.Machine.needs_flush then 0
  else if t.inject = Some Skip_fence then
    (* Injected missing ordering point: publish with no shadow sweep at
       all — neither clwbs nor the fence.  (Eliding only the sfence is
       unobservable in this machine model: clwb issue slots outpace the
       bounded WPQ drain, so the issued sweep is media-ordered before
       the root swap with or without the wait.  The reachable form of
       the classic "no flush epoch before the root swap" MOD bug is to
       skip the sweep wholesale; shadow nodes then reach media only by
       cache eviction.) *)
    0
  else begin
    let iter f = Int_vec.iter (fun a -> if a <> tx.pub_addr then f a) tx.vaddrs in
    let k =
      if t.coalesce then begin
        let k = gather_lines tx iter in
        clwb_batch t tx.lscratch k;
        k
      end
      else begin
        (* Naive A/B mode: no line dedup, but MOD's protocol is still
           one fence — per-word ordering is not MOD. *)
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

(* The 8-byte atomic root swap; its trailing clwb is unfenced —
   buffered durability, recovery reads the root. *)
let publish tx =
  let t = tx.ptm in
  if tx.pub_addr >= 0 then begin
    let a = tx.pub_addr in
    let pv = Int_vec.get tx.vvals (Int_table.find tx.wmap a ~absent) in
    match t.inject with
    | Some Tear_write ->
      (* Injected torn root swap: a byte-granular root write
         (memcpy-style) where only the low byte landed before the line
         was written back.  The corrective store fixes the
         cache-visible word but is never flushed, so the media keeps
         the torn pointer until an eviction. *)
      let old = t.m.Machine.raw_read a in
      let torn = old land lnot 0xFF lor (pv land 0xFF) in
      prof_store t a torn;
      flush t a;
      prof_store t a pv
    | _ ->
      prof_store t a pv;
      flush t a
  end

let try_commit tx =
  let t = tx.ptm in
  let n = Int_vec.length tx.vaddrs in
  let wv = validated tx acquire_root in
  wv >= 0
  && begin
    (* 1. Shadow stores: every buffered word except the root. *)
    (match t.profiler with
    | None -> shadow_stores tx n
    | Some p -> Profile.with_phase p Profile.Write_back (fun () -> shadow_stores tx n));
    (* 2. The sweep and its fence, then 3. the root swap. *)
    let data_flushes =
      match t.inject with
      | Some Reorder_log_apply ->
        (* Injected ordering bug: the root swings before the shadow
           nodes are durable — a crash in between recovers a root
           pointing at unswept garbage. *)
        publish tx;
        sweep tx
      | _ ->
        let k = sweep tx in
        publish tx;
        k
    in
    (* 4. Make the swap visible to other threads. *)
    release_acquired_to tx (version_word wv);
    (* Against a per-word discipline (clwb + fence per written word,
       root included): the sweep, the root's clwb and one fence. *)
    note_savings tx ~naive:n ~flushes:(data_flushes + 1) ~fences:1;
    note_commit tx n ~logged:false;
    true
  end
