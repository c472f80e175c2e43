(* Each slot is three consecutive words of [slots]: stamp, key, value.
   A slot is live iff its stamp equals [epoch]; [clear] bumps the
   epoch, which retires every slot at once.  Stamps start at 0 and the
   epoch at 1, so a freshly grown array is all-empty. *)
let stride = 3

type t = {
  mutable slots : int array;
  mutable shift : int; (* Sys.int_size - log2 capacity *)
  mutable limit : int; (* capacity / 2: grow before exceeding it *)
  mutable epoch : int;
  mutable len : int;
}

let create n =
  let rec bits b = if 1 lsl b >= n then b else bits (b + 1) in
  let b = bits 1 in
  {
    slots = Array.make ((1 lsl b) * stride) 0;
    shift = Sys.int_size - b;
    limit = 1 lsl (b - 1);
    epoch = 1;
    len = 0;
  }

let length t = t.len

(* Fibonacci hashing: the top bits of the key times an odd constant
   near 2^63/phi, so runs of consecutive addresses scatter. *)
let[@inline] home t k = ((k * 0x4F1BBCDCBFA53E0B) lsr t.shift) * stride

(* Word index of [k]'s live slot, or of the empty slot where [k]
   belongs.  Terminates because the load never exceeds one half.
   Indices stay below [Array.length slots]: [home] is a slot index
   times [stride] and the step wraps at the end. *)
let probe t k =
  let slots = t.slots and epoch = t.epoch in
  let j = ref (home t k) in
  while Array.unsafe_get slots !j = epoch && Array.unsafe_get slots (!j + 1) <> k do
    let next = !j + stride in
    j := if next = Array.length slots then 0 else next
  done;
  !j

let find t k ~absent =
  let j = probe t k in
  if Array.unsafe_get t.slots j = t.epoch then Array.unsafe_get t.slots (j + 2) else absent

let mem t k = Array.unsafe_get t.slots (probe t k) = t.epoch

let[@inline] fill t j k v =
  let slots = t.slots in
  Array.unsafe_set slots j t.epoch;
  Array.unsafe_set slots (j + 1) k;
  Array.unsafe_set slots (j + 2) v

let grow t =
  let old = t.slots and epoch = t.epoch in
  t.slots <- Array.make (2 * Array.length old) 0;
  t.shift <- t.shift - 1;
  t.limit <- 2 * t.limit;
  let j = ref 0 in
  while !j < Array.length old do
    if old.(!j) = epoch then begin
      let k = old.(!j + 1) in
      fill t (probe t k) k old.(!j + 2)
    end;
    j := !j + stride
  done

let replace t k v =
  let j = probe t k in
  if Array.unsafe_get t.slots j = t.epoch then Array.unsafe_set t.slots (j + 2) v
  else if t.len < t.limit then begin
    fill t j k v;
    t.len <- t.len + 1
  end
  else begin
    grow t;
    fill t (probe t k) k v;
    t.len <- t.len + 1
  end

let clear t =
  t.epoch <- t.epoch + 1;
  t.len <- 0
