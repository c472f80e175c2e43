module Ptm = Pstm.Ptm

(* Descriptor: [nbuckets; nsegments; dir...] where dir holds segment
   pointers.  Segment: 512 bucket-head words.  Node: [key; value; next]. *)

let seg_size = 512
let max_buckets = seg_size * seg_size

type t = { ptm : Ptm.t; desc : int; nbuckets : int }

let round_buckets n =
  let n = max seg_size (min n max_buckets) in
  (n + seg_size - 1) / seg_size * seg_size

let create ptm ~buckets =
  let nbuckets = round_buckets buckets in
  let nsegs = nbuckets / seg_size in
  (* One transaction per segment: a monolithic initialization of a
     large table would not fit any reasonable persistent log.  A crash
     mid-create leaks the partial table (it is not yet rooted), exactly
     as with any multi-transaction constructor. *)
  let desc =
    Ptm.atomic ptm (fun tx ->
        let d = Ptm.alloc tx (2 + nsegs) in
        Ptm.write tx d nbuckets;
        Ptm.write tx (d + 1) nsegs;
        d)
  in
  for s = 0 to nsegs - 1 do
    Ptm.atomic ptm (fun tx ->
        let seg = Ptm.alloc tx seg_size in
        for i = 0 to seg_size - 1 do
          Ptm.write tx (seg + i) 0
        done;
        Ptm.write tx (desc + 2 + s) seg)
  done;
  { ptm; desc; nbuckets }

let attach ptm desc =
  let nbuckets = (Ptm.machine ptm).Machine.raw_read desc in
  { ptm; desc; nbuckets }

let descriptor t = t.desc
let buckets t = t.nbuckets

(* Splitmix-style finalizer: high key bits must reach the low bucket
   bits (structured keys like TPC-C's (district << 34 | order) would
   otherwise collapse onto shared buckets). *)
let hash key =
  let h = key lxor (key lsr 33) in
  let h = h * 0x2545F4914F6CDD1D in
  let h = h lxor (h lsr 29) in
  let h = h * 0x9E3779B97F4A7C1 in
  h lxor (h lsr 32)

(* Address of the bucket-head word for [key].  The count is a multiple
   of 512, not always a power of two, so the index reduces modulo it
   (for a power of two, the same bucket as masking the low bits). *)
let bucket_addr tx t key =
  let i = (hash key land max_int) mod t.nbuckets in
  let seg = Ptm.read tx (t.desc + 2 + (i / seg_size)) in
  seg + (i mod seg_size)

let rec chain_find tx node key =
  if node = 0 then None
  else if Ptm.read tx node = key then Some node
  else chain_find tx (Ptm.read tx (node + 2)) key

let put tx t ~key ~value =
  assert (key > 0);
  let head = bucket_addr tx t key in
  match chain_find tx (Ptm.read tx head) key with
  | Some node ->
    Ptm.write tx (node + 1) value;
    false
  | None ->
    let node = Ptm.alloc tx 3 in
    Ptm.write tx node key;
    Ptm.write tx (node + 1) value;
    Ptm.write tx (node + 2) (Ptm.read tx head);
    Ptm.write tx head node;
    true

let get tx t key =
  let head = bucket_addr tx t key in
  match chain_find tx (Ptm.read tx head) key with
  | Some node -> Some (Ptm.read tx (node + 1))
  | None -> None

let remove tx t key =
  let head = bucket_addr tx t key in
  let rec go prev_next node =
    if node = 0 then false
    else if Ptm.read tx node = key then begin
      Ptm.write tx prev_next (Ptm.read tx (node + 2));
      Ptm.free tx node;
      true
    end
    else go (node + 2) (Ptm.read tx (node + 2))
  in
  go head (Ptm.read tx head)

(* ---------- untimed oracles ---------- *)

let iter_raw t f =
  let raw = (Ptm.machine t.ptm).Machine.raw_read in
  let nsegs = raw (t.desc + 1) in
  for s = 0 to nsegs - 1 do
    let seg = raw (t.desc + 2 + s) in
    for i = 0 to seg_size - 1 do
      let node = ref (raw (seg + i)) in
      while !node <> 0 do
        f ((s * seg_size) + i) (raw !node) (raw (!node + 1));
        node := raw (!node + 2)
      done
    done
  done

let to_alist t =
  let acc = ref [] in
  iter_raw t (fun _ k v -> acc := (k, v) :: !acc);
  !acc

let chain_lengths t =
  let lens = Array.make t.nbuckets 0 in
  iter_raw t (fun b _ _ -> lens.(b) <- lens.(b) + 1);
  lens
