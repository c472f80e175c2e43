module Ptm = Pstm.Ptm

(* MOD hash table: a fixed-depth 16-ary radix trie of immutable
   directory nodes over immutable chain nodes (arXiv 1908.11850's
   functional-shadow discipline applied to Phashtable's job).

   A flat bucket array (Phashtable's segment directory) cannot be
   shadow-updated without copying a whole 512-word segment per write;
   the trie keeps the path-copy at [levels] 17-word nodes plus the
   chain prefix, sharing everything else with the previous version.

   Layout:
     descriptor (2 words, the only mutable word is desc+1):
       word 0 : nbuckets (set once at create)
       word 1 : root directory pointer — the publish word
     directory node (17 words): [meta; child 0 .. child 15]
       meta = (magic_dir << 20) | level
     chain node (4 words): [meta; key; value; next]
       meta = magic_node << 20

   Bucket index = low bits of the splitmix hash; level [l] consumes
   bits [4l .. 4l+3].  Lookups walk [levels] trie nodes then the
   chain.  Updates path-copy the trie spine and the chain prefix up to
   the modified node (the tail is shared), then swap desc+1 — under
   [Ptm.algorithm = Mod] that is one fence and one 8-byte root store.

   Replaced nodes are retired to the handle's {!Mod_epoch} list, as in
   {!Mod_bptree}. *)

let magic_dir = 0x4D1
let magic_node = 0x4D2
let dir_fanout = 16
let dir_words = 1 + dir_fanout
let node_words = 4

let dir_meta ~level = (magic_dir lsl 20) lor level
let dir_ok m ~level = m = dir_meta ~level
let node_ok m = m = magic_node lsl 20

let max_levels = 3
let max_buckets = 1 lsl (4 * max_levels)

let round_buckets n =
  let n = max dir_fanout (min n max_buckets) in
  (* round up to a power of 16 *)
  let rec go cap = if cap >= n then cap else go (cap * dir_fanout) in
  go dir_fanout

type t = {
  ptm : Ptm.t;
  desc : int;
  levels : int;
  epoch : Mod_epoch.t; (* sweeps flush the publish word, desc+1 *)
}

let levels_for nbuckets =
  let rec go l cap = if cap >= nbuckets then l else go (l + 1) (cap * dir_fanout) in
  go 1 dir_fanout

let handle ptm desc nbuckets =
  { ptm; desc; levels = levels_for nbuckets; epoch = Mod_epoch.create ptm ~root:(desc + 1) }

let create ptm ~buckets =
  let nbuckets = round_buckets buckets in
  let desc =
    Ptm.atomic ptm (fun tx ->
        let d = Ptm.alloc tx 2 in
        Ptm.write tx d nbuckets;
        Ptm.write tx (d + 1) 0;
        d)
  in
  handle ptm desc nbuckets

let attach ptm desc = handle ptm desc ((Ptm.machine ptm).Machine.raw_read desc)

let descriptor t = t.desc

(* Same splitmix finalizer as Phashtable. *)
let hash key =
  let h = key lxor (key lsr 33) in
  let h = h * 0x2545F4914F6CDD1D in
  let h = h lxor (h lsr 29) in
  let h = h * 0x9E3779B97F4A7C1 in
  h lxor (h lsr 32)

let slot_at t h level = (h lsr (4 * (t.levels - 1 - level))) land (dir_fanout - 1)

(* ---------- defensive traversal (see Mod_bptree) ---------- *)

let check_bounds tx t addr words =
  let reg = Ptm.region t.ptm in
  if addr < Pmem.Region.data_start reg || addr + words > Pmem.Region.data_end reg then
    Ptm.abort_and_retry tx

let dir_node tx t node ~level =
  check_bounds tx t node dir_words;
  if not (dir_ok (Ptm.read tx node) ~level) then Ptm.abort_and_retry tx;
  node

let chain_node tx t node =
  check_bounds tx t node node_words;
  if not (node_ok (Ptm.read tx node)) then Ptm.abort_and_retry tx;
  node

(* ---------- reclamation ---------- *)

let retired_blocks t = Mod_epoch.retired_blocks t.epoch
let reclaim t = Mod_epoch.reclaim t.epoch

(* ---------- node builders ---------- *)

let new_dir tx ~level children =
  let d = Ptm.alloc tx dir_words in
  Ptm.write tx d (dir_meta ~level);
  Array.iteri (fun i c -> Ptm.write tx (d + 1 + i) c) children;
  d

let load_dir tx t node ~level =
  let node = dir_node tx t node ~level in
  Array.init dir_fanout (fun i -> Ptm.read tx (node + 1 + i))

let new_node tx ~key ~value ~next =
  let n = Ptm.alloc tx node_words in
  Ptm.write tx n (magic_node lsl 20);
  Ptm.write tx (n + 1) key;
  Ptm.write tx (n + 2) value;
  Ptm.write tx (n + 3) next;
  n

(* ---------- updates ---------- *)

(* Rebuild the trie spine for bucket [h] with the bucket head replaced
   by [f old_head]; [f] returns [None] to abandon (no change — nothing
   allocated yet when it does). *)
let update_bucket tx t h f =
  let dead = ref [] in
  let rec go node level =
    if level = t.levels then begin
      (* [node] is the chain head *)
      match f node with
      | None -> None
      | Some head -> Some head
    end
    else begin
      let children =
        if node = 0 then Array.make dir_fanout 0 else load_dir tx t node ~level
      in
      let slot = slot_at t h level in
      match go children.(slot) (level + 1) with
      | None -> None
      | Some c ->
        if node <> 0 then dead := node :: !dead;
        let children = Array.copy children in
        children.(slot) <- c;
        Some (new_dir tx ~level children)
    end
  in
  match go (Ptm.read tx (t.desc + 1)) 0 with
  | None -> false
  | Some nroot ->
    Ptm.write tx (t.desc + 1) nroot;
    Mod_epoch.retire tx t.epoch !dead;
    true

let put tx t ~key ~value =
  assert (key > 0);
  let added = ref false in
  let replaced = ref [] in
  let rebuild head =
    (* Copy the chain prefix up to the matching node (tail shared);
       prepend when absent. *)
    let rec go node =
      if node = 0 then begin
        added := true;
        `Missing
      end
      else begin
        let node = chain_node tx t node in
        if Ptm.read tx (node + 1) = key then begin
          replaced := [ node ];
          `Found (new_node tx ~key ~value ~next:(Ptm.read tx (node + 3)))
        end
        else begin
          match go (Ptm.read tx (node + 3)) with
          | `Missing -> `Missing
          | `Found tail ->
            replaced := node :: !replaced;
            `Found
              (new_node tx ~key:(Ptm.read tx (node + 1)) ~value:(Ptm.read tx (node + 2))
                 ~next:tail)
        end
      end
    in
    match go head with
    | `Missing -> Some (new_node tx ~key ~value ~next:head)
    | `Found head' -> Some head'
  in
  ignore (update_bucket tx t (hash key) rebuild);
  Mod_epoch.retire tx t.epoch !replaced;
  !added

let get tx t key =
  let h = hash key in
  let rec walk node level =
    if node = 0 then None
    else if level = t.levels then begin
      let rec chain node =
        if node = 0 then None
        else begin
          let node = chain_node tx t node in
          if Ptm.read tx (node + 1) = key then Some (Ptm.read tx (node + 2))
          else chain (Ptm.read tx (node + 3))
        end
      in
      chain node
    end
    else begin
      let node = dir_node tx t node ~level in
      walk (Ptm.read tx (node + 1 + slot_at t h level)) (level + 1)
    end
  in
  walk (Ptm.read tx (t.desc + 1)) 0

let remove tx t key =
  let removed = ref [] in
  let rebuild head =
    let rec go node =
      if node = 0 then `Missing
      else begin
        let node = chain_node tx t node in
        if Ptm.read tx (node + 1) = key then begin
          removed := node :: !removed;
          `Found (Ptm.read tx (node + 3))
        end
        else begin
          match go (Ptm.read tx (node + 3)) with
          | `Missing -> `Missing
          | `Found tail ->
            removed := node :: !removed;
            `Found
              (new_node tx ~key:(Ptm.read tx (node + 1)) ~value:(Ptm.read tx (node + 2))
                 ~next:tail)
        end
      end
    in
    match go head with `Missing -> None | `Found head' -> Some head'
  in
  let did = update_bucket tx t (hash key) rebuild in
  if did then Mod_epoch.retire tx t.epoch !removed;
  did

(* ---------- untimed oracles ---------- *)

let iter_raw t f =
  let raw = (Ptm.machine t.ptm).Machine.raw_read in
  let rec walk node level prefix =
    if node <> 0 then
      if level = t.levels then begin
        let cursor = ref node in
        while !cursor <> 0 do
          f prefix (raw (!cursor + 1)) (raw (!cursor + 2));
          cursor := raw (!cursor + 3)
        done
      end
      else
        for i = 0 to dir_fanout - 1 do
          walk (raw (node + 1 + i)) (level + 1) ((prefix lsl 4) lor i)
        done
  in
  walk (raw (t.desc + 1)) 0 0

let to_alist t =
  let acc = ref [] in
  iter_raw t (fun _ k v -> acc := (k, v) :: !acc);
  !acc

let check_invariants t =
  let raw = (Ptm.machine t.ptm).Machine.raw_read in
  let reg = Ptm.region t.ptm in
  let fail fmt = Printf.ksprintf failwith fmt in
  let seen = Hashtbl.create 64 in
  let rec walk node level path =
    if node <> 0 then begin
      if node < Pmem.Region.data_start reg || node + dir_words > Pmem.Region.data_end reg
      then fail "trie node %d outside the data area" node;
      if level = t.levels then begin
        let cursor = ref node in
        while !cursor <> 0 do
          let n = !cursor in
          if n < Pmem.Region.data_start reg || n + node_words > Pmem.Region.data_end reg
          then fail "chain node %d outside the data area" n;
          if not (node_ok (raw n)) then fail "chain node %d bad meta %x" n (raw n);
          let k = raw (n + 1) in
          if Hashtbl.mem seen k then fail "duplicate key %d" k;
          Hashtbl.add seen k ();
          let h = hash k in
          let want =
            let p = ref 0 in
            for l = 0 to t.levels - 1 do
              p := (!p lsl 4) lor ((h lsr (4 * (t.levels - 1 - l))) land 0xF)
            done;
            !p
          in
          if want <> path then fail "key %d in wrong bucket (%d, want %d)" k path want;
          cursor := raw (n + 3)
        done
      end
      else begin
        if not (dir_ok (raw node) ~level) then fail "trie node %d bad meta %x" node (raw node);
        for i = 0 to dir_fanout - 1 do
          walk (raw (node + 1 + i)) (level + 1) ((path lsl 4) lor i)
        done
      end
    end
  in
  walk (raw (t.desc + 1)) 0 0
