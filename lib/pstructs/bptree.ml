module Ptm = Pstm.Ptm

(* Node layout (node_words words, one allocator block):
     word 0           : (is_leaf << 16) | nkeys
     words 1 .. b     : keys
     leaf:     words b+1 .. 2b : values;  word 2b+1 : next-leaf pointer
     internal: words b+1 .. 2b+1 : children (nkeys+1 used)           *)

let b = 14 (* maximum keys per node *)
let node_words = (2 * b) + 2

let off_meta = 0
let off_key i = 1 + i
let off_val i = 1 + b + i
let off_child i = 1 + b + i
let off_next = (2 * b) + 1

let meta ~leaf ~nkeys = ((if leaf then 1 else 0) lsl 16) lor nkeys
let meta_is_leaf m = m lsr 16 = 1
let meta_nkeys m = m land 0xFFFF

type t = { ptm : Ptm.t; desc : int }

let create ptm =
  let desc = Ptm.atomic ptm (fun tx ->
      let d = Ptm.alloc tx 1 in
      Ptm.write tx d 0;
      d)
  in
  { ptm; desc }

let attach ptm desc = { ptm; desc }

let descriptor t = t.desc

let new_leaf tx =
  let n = Ptm.alloc tx node_words in
  Ptm.write tx (n + off_meta) (meta ~leaf:true ~nkeys:0);
  Ptm.write tx (n + off_next) 0;
  n

(* Position of the first key >= [key] among the node's [nkeys] keys. *)
let find_pos tx node nkeys key =
  let rec go i =
    if i >= nkeys then i
    else if Ptm.read tx (node + off_key i) >= key then i
    else go (i + 1)
  in
  go 0

(* Split full child [ci] of [parent] (which has room).  B+Tree split:
   leaves copy the separator up, internals move it up. *)
let split_child tx parent pi ci =
  let pmeta = Ptm.read tx (parent + off_meta) in
  let pn = meta_nkeys pmeta in
  let cmeta = Ptm.read tx (ci + off_meta) in
  let leaf = meta_is_leaf cmeta in
  let right = Ptm.alloc tx node_words in
  let h = (b + 1) / 2 in
  let sep =
    if leaf then begin
      (* right takes keys[h..b-1] *)
      let rn = b - h in
      for i = 0 to rn - 1 do
        Ptm.write tx (right + off_key i) (Ptm.read tx (ci + off_key (h + i)));
        Ptm.write tx (right + off_val i) (Ptm.read tx (ci + off_val (h + i)))
      done;
      Ptm.write tx (right + off_meta) (meta ~leaf:true ~nkeys:rn);
      Ptm.write tx (right + off_next) (Ptm.read tx (ci + off_next));
      Ptm.write tx (ci + off_next) right;
      Ptm.write tx (ci + off_meta) (meta ~leaf:true ~nkeys:h);
      Ptm.read tx (right + off_key 0)
    end
    else begin
      (* median key at h-1 moves up; right takes keys[h..b-1] and
         children[h..b] *)
      let rn = b - h in
      for i = 0 to rn - 1 do
        Ptm.write tx (right + off_key i) (Ptm.read tx (ci + off_key (h + i)))
      done;
      for i = 0 to rn do
        Ptm.write tx (right + off_child i) (Ptm.read tx (ci + off_child (h + i)))
      done;
      Ptm.write tx (right + off_meta) (meta ~leaf:false ~nkeys:rn);
      Ptm.write tx (ci + off_meta) (meta ~leaf:false ~nkeys:(h - 1));
      Ptm.read tx (ci + off_key (h - 1))
    end
  in
  (* Insert separator and right pointer into the parent at position pi. *)
  for i = pn - 1 downto pi do
    Ptm.write tx (parent + off_key (i + 1)) (Ptm.read tx (parent + off_key i))
  done;
  for i = pn downto pi + 1 do
    Ptm.write tx (parent + off_child (i + 1)) (Ptm.read tx (parent + off_child i))
  done;
  Ptm.write tx (parent + off_key pi) sep;
  Ptm.write tx (parent + off_child (pi + 1)) right;
  Ptm.write tx (parent + off_meta) (meta ~leaf:false ~nkeys:(pn + 1))

let is_full tx node = meta_nkeys (Ptm.read tx (node + off_meta)) = b

let insert tx t ~key ~value =
  assert (key > 0);
  let root = Ptm.read tx t.desc in
  let root =
    if root = 0 then begin
      let leaf = new_leaf tx in
      Ptm.write tx t.desc leaf;
      leaf
    end
    else if is_full tx root then begin
      let nroot = Ptm.alloc tx node_words in
      Ptm.write tx (nroot + off_meta) (meta ~leaf:false ~nkeys:0);
      Ptm.write tx (nroot + off_child 0) root;
      split_child tx nroot 0 root;
      Ptm.write tx t.desc nroot;
      nroot
    end
    else root
  in
  let rec descend node =
    let m = Ptm.read tx (node + off_meta) in
    let nkeys = meta_nkeys m in
    if meta_is_leaf m then begin
      let pos = find_pos tx node nkeys key in
      if pos < nkeys && Ptm.read tx (node + off_key pos) = key then begin
        Ptm.write tx (node + off_val pos) value;
        false
      end
      else begin
        for i = nkeys - 1 downto pos do
          Ptm.write tx (node + off_key (i + 1)) (Ptm.read tx (node + off_key i));
          Ptm.write tx (node + off_val (i + 1)) (Ptm.read tx (node + off_val i))
        done;
        Ptm.write tx (node + off_key pos) key;
        Ptm.write tx (node + off_val pos) value;
        Ptm.write tx (node + off_meta) (meta ~leaf:true ~nkeys:(nkeys + 1));
        true
      end
    end
    else begin
      let pos = find_pos tx node nkeys key in
      (* Children of key[pos]: left subtree has keys < key[pos]; equal
         keys live in the right subtree (separator = right's min). *)
      let pos = if pos < nkeys && Ptm.read tx (node + off_key pos) = key then pos + 1 else pos in
      let child = Ptm.read tx (node + off_child pos) in
      if is_full tx child then begin
        split_child tx node pos child;
        let sep = Ptm.read tx (node + off_key pos) in
        let pos = if key >= sep then pos + 1 else pos in
        descend (Ptm.read tx (node + off_child pos))
      end
      else descend child
    end
  in
  descend root

let rec find_leaf tx node key =
  let m = Ptm.read tx (node + off_meta) in
  let nkeys = meta_nkeys m in
  if meta_is_leaf m then node
  else begin
    let pos = find_pos tx node nkeys key in
    let pos = if pos < nkeys && Ptm.read tx (node + off_key pos) = key then pos + 1 else pos in
    find_leaf tx (Ptm.read tx (node + off_child pos)) key
  end

let lookup tx t key =
  let root = Ptm.read tx t.desc in
  if root = 0 then None
  else begin
    let leaf = find_leaf tx root key in
    let nkeys = meta_nkeys (Ptm.read tx (leaf + off_meta)) in
    let pos = find_pos tx leaf nkeys key in
    if pos < nkeys && Ptm.read tx (leaf + off_key pos) = key then
      Some (Ptm.read tx (leaf + off_val pos))
    else None
  end

let remove tx t key =
  let root = Ptm.read tx t.desc in
  if root = 0 then false
  else begin
    let leaf = find_leaf tx root key in
    let nkeys = meta_nkeys (Ptm.read tx (leaf + off_meta)) in
    let pos = find_pos tx leaf nkeys key in
    if pos < nkeys && Ptm.read tx (leaf + off_key pos) = key then begin
      for i = pos to nkeys - 2 do
        Ptm.write tx (leaf + off_key i) (Ptm.read tx (leaf + off_key (i + 1)));
        Ptm.write tx (leaf + off_val i) (Ptm.read tx (leaf + off_val (i + 1)))
      done;
      Ptm.write tx (leaf + off_meta) (meta ~leaf:true ~nkeys:(nkeys - 1));
      true
    end
    else false
  end

let fold_range tx t ~lo ~hi f acc =
  assert (lo <= hi);
  let root = Ptm.read tx t.desc in
  if root = 0 then acc
  else begin
    (* Descend to the leaf that would hold [lo], then ride the chain. *)
    let rec walk leaf acc =
      if leaf = 0 then acc
      else begin
        let nkeys = meta_nkeys (Ptm.read tx (leaf + off_meta)) in
        let acc = ref acc in
        let past_hi = ref false in
        for i = 0 to nkeys - 1 do
          let k = Ptm.read tx (leaf + off_key i) in
          if k > hi then past_hi := true
          else if k >= lo then acc := f !acc k (Ptm.read tx (leaf + off_val i))
        done;
        if !past_hi then !acc else walk (Ptm.read tx (leaf + off_next)) !acc
      end
    in
    walk (find_leaf tx root lo) acc
  end

(* ---------- untimed oracles ---------- *)

let to_alist t =
  let raw = (Ptm.machine t.ptm).Machine.raw_read in
  let root = raw t.desc in
  if root = 0 then []
  else begin
    let rec leftmost node =
      let m = raw (node + off_meta) in
      if meta_is_leaf m then node else leftmost (raw (node + off_child 0))
    in
    let rec walk leaf acc =
      if leaf = 0 then List.rev acc
      else begin
        let nkeys = meta_nkeys (raw (leaf + off_meta)) in
        let acc = ref acc in
        for i = 0 to nkeys - 1 do
          acc := (raw (leaf + off_key i), raw (leaf + off_val i)) :: !acc
        done;
        walk (raw (leaf + off_next)) !acc
      end
    in
    walk (leftmost root) []
  end

let check_invariants t =
  let raw = (Ptm.machine t.ptm).Machine.raw_read in
  let fail fmt = Printf.ksprintf failwith fmt in
  let root = raw t.desc in
  if root <> 0 then begin
    let leaves = ref [] in
    (* Returns leaf depth; checks key bounds (lo, hi are exclusive
       bounds; 0 = unbounded). *)
    let rec check node lo hi =
      let m = raw (node + off_meta) in
      let nkeys = meta_nkeys m in
      if nkeys > b then fail "node %d overfull (%d keys)" node nkeys;
      let prev = ref lo in
      for i = 0 to nkeys - 1 do
        let k = raw (node + off_key i) in
        if !prev <> 0 && k < !prev then fail "node %d keys out of order" node;
        if hi <> 0 && k >= hi then fail "node %d key %d >= upper bound %d" node k hi;
        if lo <> 0 && k < lo then fail "node %d key %d < lower bound %d" node k lo;
        prev := k
      done;
      if meta_is_leaf m then begin
        leaves := node :: !leaves;
        1
      end
      else begin
        if nkeys = 0 && node <> root then fail "empty internal node %d" node;
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
    (* The leaf chain must visit exactly the leaves, in key order. *)
    let chain = ref [] in
    let rec leftmost node =
      let m = raw (node + off_meta) in
      if meta_is_leaf m then node else leftmost (raw (node + off_child 0))
    in
    let cursor = ref (leftmost root) in
    while !cursor <> 0 do
      chain := !cursor :: !chain;
      cursor := raw (!cursor + off_next)
    done;
    let sorted_set l = List.sort_uniq compare l in
    if sorted_set !chain <> sorted_set !leaves then fail "leaf chain and tree leaves disagree";
    let keys = List.map fst (to_alist t) in
    if List.sort compare keys <> keys then fail "leaf chain keys not sorted"
  end
