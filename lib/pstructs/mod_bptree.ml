module Ptm = Pstm.Ptm

(* MOD B+Tree: purely-functional persistent nodes (arXiv 1908.11850).
   Nodes are immutable once published — every update path-copies from
   the touched leaf up to the root into freshly allocated blocks, then
   swings the one-word descriptor to the new root.  Under
   [Ptm.algorithm = Mod] that shape commits with a single ordering
   fence; under redo/undo the same code runs as ordinary logged
   transactions (useful for differential testing).

   Node layout (node_words words, one allocator block):
     word 0           : (magic << 20) | (is_leaf << 16) | nkeys
     words 1 .. b     : keys
     leaf:     words b+1 .. 2b   : values
     internal: words b+1 .. 2b+1 : children (nkeys+1 used)

   There is no leaf chain: a next-leaf pointer would make the left
   sibling mutable on every split, breaking the shadow discipline.
   Ordered iteration walks the tree instead.

   Reclamation: replaced nodes are retired to the handle's
   {!Mod_epoch} list and recycled once no snapshot can reach them. *)

let b = 14 (* maximum keys per node *)
let node_words = (2 * b) + 2
let magic = 0x4D (* 'M' *)

let off_meta = 0
let off_key i = 1 + i
let off_val i = 1 + b + i
let off_child i = 1 + b + i

let meta ~leaf ~nkeys = (magic lsl 20) lor ((if leaf then 1 else 0) lsl 16) lor nkeys
let meta_is_leaf m = (m lsr 16) land 1 = 1
let meta_nkeys m = m land 0xFFFF
let meta_ok m = m lsr 20 = magic && meta_nkeys m <= b

type t = {
  ptm : Ptm.t;
  desc : int; (* one word: the root pointer — the only mutable word *)
  epoch : Mod_epoch.t;
}

let attach ptm desc = { ptm; desc; epoch = Mod_epoch.create ptm ~root:desc }

let create ptm =
  attach ptm
    (Ptm.atomic ptm (fun tx ->
         let d = Ptm.alloc tx 1 in
         Ptm.write tx d 0;
         d))

let descriptor t = t.desc

(* ---------- defensive traversal ----------

   Concurrent MOD readers run without ownership records on shadow
   nodes; a snapshot older than two root swaps can race block
   recycling and read a node mid-reuse.  Every pointer is therefore
   bounds- and magic-checked before being dereferenced: garbage turns
   into [abort_and_retry] (the retry re-reads the root, whose orec has
   moved, and conflicts cleanly) instead of a wild heap access. *)

let node_meta tx t node =
  let reg = Ptm.region t.ptm in
  if
    node < Pmem.Region.data_start reg
    || node + node_words > Pmem.Region.data_end reg
  then Ptm.abort_and_retry tx;
  let m = Ptm.read tx (node + off_meta) in
  if not (meta_ok m) then Ptm.abort_and_retry tx;
  m

(* ---------- reclamation ---------- *)

let retired_blocks t = Mod_epoch.retired_blocks t.epoch
let reclaim t = Mod_epoch.reclaim t.epoch

(* ---------- functional node builders ---------- *)

(* A node under construction, in volatile arrays. *)
type scratch = { leaf : bool; n : int; keys : int array; vals : int array }

(* keys.(0..n-1); vals carries values (leaf) or children (internal,
   n+1 used). *)

let load tx t node =
  let m = node_meta tx t node in
  let n = meta_nkeys m in
  let leaf = meta_is_leaf m in
  let keys = Array.init n (fun i -> Ptm.read tx (node + off_key i)) in
  let vals =
    if leaf then Array.init n (fun i -> Ptm.read tx (node + off_val i))
    else Array.init (n + 1) (fun i -> Ptm.read tx (node + off_child i))
  in
  { leaf; n; keys; vals }

let store tx s =
  let node = Ptm.alloc tx node_words in
  Ptm.write tx (node + off_meta) (meta ~leaf:s.leaf ~nkeys:s.n);
  for i = 0 to s.n - 1 do
    Ptm.write tx (node + off_key i) s.keys.(i)
  done;
  if s.leaf then
    for i = 0 to s.n - 1 do
      Ptm.write tx (node + off_val i) s.vals.(i)
    done
  else
    for i = 0 to s.n do
      Ptm.write tx (node + off_child i) s.vals.(i)
    done;
  node

(* Position of the first key >= [key]. *)
let scratch_pos s key =
  let rec go i = if i >= s.n then i else if s.keys.(i) >= key then i else go (i + 1) in
  go 0

(* Child slot for [key]: equal keys live in the right subtree. *)
let child_slot s key =
  let pos = scratch_pos s key in
  if pos < s.n && s.keys.(pos) = key then pos + 1 else pos

(* Split an overfull scratch (n = b + 1) into left/right + separator.
   Leaves keep the separator in the right half (B+ semantics: the
   separator equals right's minimum); internals move the median up. *)
let split s =
  if s.leaf then begin
    let h = (b + 2) / 2 in
    let rn = s.n - h in
    let left = { leaf = true; n = h; keys = Array.sub s.keys 0 h; vals = Array.sub s.vals 0 h } in
    let right =
      { leaf = true; n = rn; keys = Array.sub s.keys h rn; vals = Array.sub s.vals h rn }
    in
    (left, s.keys.(h), right)
  end
  else begin
    let h = (b + 2) / 2 in
    (* median key at h-1 moves up *)
    let rn = s.n - h in
    let left =
      { leaf = false; n = h - 1; keys = Array.sub s.keys 0 (h - 1); vals = Array.sub s.vals 0 h }
    in
    let right =
      {
        leaf = false;
        n = rn;
        keys = Array.sub s.keys h rn;
        vals = Array.sub s.vals h (rn + 1);
      }
    in
    (left, s.keys.(h - 1), right)
  end

let insert_at arr pos v n =
  let out = Array.make (n + 1) 0 in
  Array.blit arr 0 out 0 pos;
  out.(pos) <- v;
  Array.blit arr pos out (pos + 1) (n - pos);
  out

(* ---------- updates ---------- *)

let insert tx t ~key ~value =
  assert (key > 0);
  let dead = ref [] in
  (* Copy the path from [node] down; returns either one new node or a
     split pair, plus whether a binding was added. *)
  let rec ins node =
    let s = load tx t node in
    dead := node :: !dead;
    if s.leaf then begin
      let pos = scratch_pos s key in
      if pos < s.n && s.keys.(pos) = key then begin
        let vals = Array.copy s.vals in
        vals.(pos) <- value;
        (`One (store tx { s with vals }), false)
      end
      else begin
        let s' =
          {
            s with
            n = s.n + 1;
            keys = insert_at s.keys pos key s.n;
            vals = insert_at s.vals pos value s.n;
          }
        in
        if s'.n <= b then (`One (store tx s'), true)
        else begin
          let l, sep, r = split s' in
          (`Split (store tx l, sep, store tx r), true)
        end
      end
    end
    else begin
      let slot = child_slot s key in
      let sub, added = ins s.vals.(slot) in
      match sub with
      | `One c ->
        let vals = Array.copy s.vals in
        vals.(slot) <- c;
        (`One (store tx { s with vals }), added)
      | `Split (l, sep, r) ->
        let keys = insert_at s.keys slot sep s.n in
        let vals = Array.make (s.n + 2) 0 in
        Array.blit s.vals 0 vals 0 slot;
        vals.(slot) <- l;
        vals.(slot + 1) <- r;
        Array.blit s.vals (slot + 1) vals (slot + 2) (s.n - slot);
        let s' = { s with n = s.n + 1; keys; vals } in
        if s'.n <= b then (`One (store tx s'), added)
        else begin
          let l', sep', r' = split s' in
          (`Split (store tx l', sep', store tx r'), added)
        end
    end
  in
  let root = Ptm.read tx t.desc in
  let nroot, added =
    if root = 0 then
      (store tx { leaf = true; n = 1; keys = [| key |]; vals = [| value |] }, true)
    else begin
      match ins root with
      | `One n, added -> (n, added)
      | `Split (l, sep, r), added ->
        (store tx { leaf = false; n = 1; keys = [| sep |]; vals = [| l; r |] }, added)
    end
  in
  Ptm.write tx t.desc nroot;
  Mod_epoch.retire tx t.epoch !dead;
  added

let remove tx t key =
  let dead = ref [] in
  (* Returns the replacement node, or raises Not_found to mean "key
     absent" — in that case nothing was allocated (loads only). *)
  let rec del node =
    let s = load tx t node in
    if s.leaf then begin
      let pos = scratch_pos s key in
      if pos < s.n && s.keys.(pos) = key then begin
        dead := node :: !dead;
        let keys = Array.init (s.n - 1) (fun i -> if i < pos then s.keys.(i) else s.keys.(i + 1)) in
        let vals = Array.init (s.n - 1) (fun i -> if i < pos then s.vals.(i) else s.vals.(i + 1)) in
        store tx { s with n = s.n - 1; keys; vals }
      end
      else raise Not_found
    end
    else begin
      let slot = child_slot s key in
      let c = del s.vals.(slot) in
      dead := node :: !dead;
      let vals = Array.copy s.vals in
      vals.(slot) <- c;
      store tx { s with vals }
    end
  in
  let root = Ptm.read tx t.desc in
  if root = 0 then false
  else begin
    match del root with
    | nroot ->
      Ptm.write tx t.desc nroot;
      Mod_epoch.retire tx t.epoch !dead;
      true
    | exception Not_found -> false
  end

(* ---------- reads ---------- *)

let lookup tx t key =
  let root = Ptm.read tx t.desc in
  if root = 0 then None
  else begin
    let rec go node =
      let m = node_meta tx t node in
      let n = meta_nkeys m in
      if meta_is_leaf m then begin
        let rec scan i =
          if i >= n then None
          else begin
            let k = Ptm.read tx (node + off_key i) in
            if k = key then Some (Ptm.read tx (node + off_val i))
            else if k > key then None
            else scan (i + 1)
          end
        in
        scan 0
      end
      else begin
        let rec pos i =
          if i >= n then i
          else begin
            let k = Ptm.read tx (node + off_key i) in
            if key < k then i else if k = key then i + 1 else pos (i + 1)
          end
        in
        go (Ptm.read tx (node + off_child (pos 0)))
      end
    in
    go root
  end

let fold_range tx t ~lo ~hi f acc =
  assert (lo <= hi);
  let root = Ptm.read tx t.desc in
  if root = 0 then acc
  else begin
    (* In-order walk, pruned by the separator bounds. *)
    let rec go node acc =
      let m = node_meta tx t node in
      let n = meta_nkeys m in
      if meta_is_leaf m then begin
        let acc = ref acc in
        for i = 0 to n - 1 do
          let k = Ptm.read tx (node + off_key i) in
          if k >= lo && k <= hi then acc := f !acc k (Ptm.read tx (node + off_val i))
        done;
        !acc
      end
      else begin
        let acc = ref acc in
        for i = 0 to n do
          let klo = if i = 0 then min_int else Ptm.read tx (node + off_key (i - 1)) in
          let khi = if i = n then max_int else Ptm.read tx (node + off_key i) in
          (* subtree i holds keys in [klo, khi) *)
          if klo <= hi && khi > lo then acc := go (Ptm.read tx (node + off_child i)) !acc
        done;
        !acc
      end
    in
    go root acc
  end

(* ---------- untimed oracles ---------- *)

let to_alist t =
  let raw = (Ptm.machine t.ptm).Machine.raw_read in
  let root = raw t.desc in
  if root = 0 then []
  else begin
    let rec go node acc =
      let m = raw (node + off_meta) in
      let n = meta_nkeys m in
      if meta_is_leaf m then begin
        let acc = ref acc in
        for i = n - 1 downto 0 do
          acc := (raw (node + off_key i), raw (node + off_val i)) :: !acc
        done;
        !acc
      end
      else begin
        let acc = ref acc in
        for i = n downto 0 do
          acc := go (raw (node + off_child i)) !acc
        done;
        !acc
      end
    in
    go root []
  end

let check_invariants t =
  let raw = (Ptm.machine t.ptm).Machine.raw_read in
  let fail fmt = Printf.ksprintf failwith fmt in
  let reg = Ptm.region t.ptm in
  let root = raw t.desc in
  if root <> 0 then begin
    (* Returns leaf depth; checks magic, bounds and key order (lo, hi
       are exclusive bounds; 0 = unbounded). *)
    let rec check node lo hi =
      if node < Pmem.Region.data_start reg || node + node_words > Pmem.Region.data_end reg
      then fail "node %d outside the data area" node;
      let m = raw (node + off_meta) in
      if not (meta_ok m) then fail "node %d bad meta %x" node m;
      let nkeys = meta_nkeys m in
      let prev = ref lo in
      for i = 0 to nkeys - 1 do
        let k = raw (node + off_key i) in
        if !prev <> 0 && k < !prev then fail "node %d keys out of order" node;
        if hi <> 0 && k >= hi then fail "node %d key %d >= upper bound %d" node k hi;
        if lo <> 0 && k < lo then fail "node %d key %d < lower bound %d" node k lo;
        prev := k
      done;
      if meta_is_leaf m then 1
      else begin
        if nkeys = 0 then fail "empty internal node %d" node;
        let depth = ref 0 in
        for i = 0 to nkeys do
          let lo' = if i = 0 then lo else raw (node + off_key (i - 1)) in
          let hi' = if i = nkeys then hi else raw (node + off_key i) in
          let d = check (raw (node + off_child i)) lo' hi' in
          if !depth = 0 then depth := d
          else if d <> !depth then fail "uneven leaf depth under node %d" node
        done;
        !depth + 1
      end
    in
    ignore (check root 0 0);
    let keys = List.map fst (to_alist t) in
    if List.sort_uniq compare keys <> keys then fail "keys not sorted and unique"
  end
