(* One flat int array, three ints per slot: key, insertion sequence
   (the FIFO tie-break) and payload.  Loops index slots by offset
   [p = 3 * slot], so the children of [p] sit at [2p + 3] and [2p + 6]
   and the parent at [(p - 3) / 6 * 3].  Sifts move a hole instead of
   swapping: each level copies one slot, and the moving entry is
   written once where it comes to rest.  The comparisons are spelled
   out inline and the sift loops skip bounds checks: every offset they
   touch is below [3 * size], and [size] never exceeds the array's
   capacity. *)

type t = {
  mutable slots : int array;
  mutable size : int;
  mutable next_seq : int;
}

external get : int array -> int -> int = "%array_unsafe_get"
external set : int array -> int -> int -> unit = "%array_unsafe_set"

let create () = { slots = [||]; size = 0; next_seq = 0 }

let length t = t.size

let is_empty t = t.size = 0

(* Place ([key], [seq], [value]) by moving the hole at offset [p] down. *)
let sift_down t p key seq value =
  let a = t.slots and limit = 3 * t.size in
  let p = ref p and continue = ref true in
  while !continue do
    let l = (2 * !p) + 3 in
    if l >= limit then continue := false
    else begin
      (* [c]: the child that comes first. *)
      let r = l + 3 in
      let c =
        if r < limit && (get a r < get a l || (get a r = get a l && get a (r + 1) < get a (l + 1)))
        then r
        else l
      in
      let ck = get a c in
      if ck < key || (ck = key && get a (c + 1) < seq) then begin
        set a !p ck;
        set a (!p + 1) (get a (c + 1));
        set a (!p + 2) (get a (c + 2));
        p := c
      end
      else continue := false
    end
  done;
  set a !p key;
  set a (!p + 1) seq;
  set a (!p + 2) value

let push t ~key value =
  let cap = Array.length t.slots / 3 in
  if t.size = cap then begin
    let bigger = Array.make (3 * max 16 (2 * cap)) 0 in
    Array.blit t.slots 0 bigger 0 (3 * cap);
    t.slots <- bigger
  end;
  let a = t.slots and seq = t.next_seq in
  t.next_seq <- seq + 1;
  let p = ref (3 * t.size) in
  t.size <- t.size + 1;
  (* The new entry has the newest sequence number, so it moves above a
     parent only on a strictly smaller key. *)
  let continue = ref true in
  while !continue && !p > 0 do
    let q = (!p - 3) / 6 * 3 in
    if key < get a q then begin
      set a !p (get a q);
      set a (!p + 1) (get a (q + 1));
      set a (!p + 2) (get a (q + 2));
      p := q
    end
    else continue := false
  done;
  set a !p key;
  set a (!p + 1) seq;
  set a (!p + 2) value

let pop t =
  if t.size = 0 then -1
  else begin
    let a = t.slots in
    let top = a.(2) in
    t.size <- t.size - 1;
    let last = 3 * t.size in
    if last > 0 then sift_down t 0 a.(last) a.(last + 1) a.(last + 2);
    top
  end
