type t = { mutable data : int array; mutable len : int }

let create ?(capacity = 16) () = { data = Array.make (max capacity 1) 0; len = 0 }

let length t = t.len

(* Growth is rare, so it stays out of line and the inlined [push] is a
   length check and a store. *)
let[@inline never] grow t =
  let bigger = Array.make (2 * t.len) 0 in
  Array.blit t.data 0 bigger 0 t.len;
  t.data <- bigger

let[@inline] push t x =
  if t.len = Array.length t.data then grow t;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let[@inline] get t i =
  assert (i >= 0 && i < t.len);
  t.data.(i)

let[@inline] set t i x =
  assert (i >= 0 && i < t.len);
  t.data.(i) <- x

let[@inline] clear t = t.len <- 0

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let iter_rev_pairs f t =
  assert (t.len mod 2 = 0);
  let i = ref (t.len - 2) in
  while !i >= 0 do
    f t.data.(!i) t.data.(!i + 1);
    i := !i - 2
  done

let exists f t =
  let rec go i = i < t.len && (f t.data.(i) || go (i + 1)) in
  go 0
