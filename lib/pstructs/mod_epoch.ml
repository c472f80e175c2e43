module Ptm = Pstm.Ptm

(* Epoch reclamation for the MOD structures (Mod_bptree,
   Mod_phashtable).  Replaced nodes are retired to a volatile
   per-handle list stamped with the post-swap clock value; a block is
   recycled (raw free-list push, no transaction) once
   [Ptm.min_active_rv] passes its stamp, i.e. no in-flight snapshot can
   still reach it.  A crash drops the list: those blocks leak, bounded
   by the retire window, and `Pmem.Check` treats unreachable allocated
   blocks as benign.

   Each handle keeps its own list, so a benchmark that attaches one
   handle per thread batches per thread. *)

type retired = { stamp : int; blocks : int list }

type t = {
  ptm : Ptm.t;
  root : int; (* the structure's publish word *)
  mutable retired : retired list; (* volatile, oldest last *)
}

let create ptm ~root = { ptm; root; retired = [] }

let retired_blocks t = List.fold_left (fun n r -> n + List.length r.blocks) 0 t.retired

(* Reclaiming a block is safe only when (a) no in-flight snapshot can
   reach it — [min_active_rv] has passed its retire stamp — AND (b) no
   {e durable} root can: the root swap is published with an unfenced
   clwb, so the media root may lag the memory root by several versions,
   and recycling a block an old media root still references would
   corrupt the crash image.  One clwb+sfence of the root line per
   reclaim batch closes (b) — the drained root postdates every unlink
   in the batch — and the batch threshold amortizes it to a fraction of
   a fence per op, preserving the one-fence-per-update discipline. *)
let reclaim t =
  let horizon = Ptm.min_active_rv t.ptm in
  let live, dead = List.partition (fun r -> r.stamp >= horizon) t.retired in
  if dead <> [] then begin
    t.retired <- live;
    let m = Ptm.machine t.ptm in
    if m.Machine.needs_flush then begin
      m.Machine.clwb t.root;
      m.Machine.sfence ()
    end;
    let raw_ops =
      {
        Pmem.Alloc.txr = m.Machine.raw_read;
        txw = m.Machine.raw_write;
        on_commit = (fun hook -> hook ());
        on_abort = ignore;
      }
    in
    let alc = Ptm.allocator t.ptm in
    List.iter (fun r -> List.iter (Pmem.Alloc.free alc raw_ops) r.blocks) dead
  end

let reclaim_threshold = 128

(* Park [blocks] once [tx] commits; sweep when the list reaches the
   threshold. *)
let retire tx t blocks =
  if blocks <> [] then
    Ptm.on_commit tx (fun () ->
        t.retired <- { stamp = Ptm.clock t.ptm; blocks } :: t.retired;
        if retired_blocks t >= reclaim_threshold then reclaim t)
