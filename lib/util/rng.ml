(* The splitmix64 state lives unboxed in an 8-byte buffer, so a draw
   allocates nothing: a [mutable int64] field would box a fresh Int64
   on every step.  The state is never serialised, so native byte order
   is fine. *)
type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let g = Bytes.create 8 in
  set_state g 0 s;
  g

let create seed = of_state (Int64.of_int seed)

let copy = Bytes.copy

(* splitmix64 finalizer *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next_i64 g =
  let s = Int64.add (get_state g 0) golden_gamma in
  set_state g 0 s;
  mix s

let next g = Int64.to_int (Int64.shift_right_logical (next_i64 g) 1) land max_int

let split g = of_state (next_i64 g)

(* Rejection sampling to avoid modulo bias on pathological bounds. *)
let rec draw_below g bound =
  let r = next g in
  let v = r mod bound in
  if r - v > max_int - bound + 1 then draw_below g bound else v

let int g bound =
  assert (bound > 0);
  draw_below g bound

let int_in g lo hi =
  assert (hi >= lo);
  lo + int g (hi - lo + 1)

let[@inline] float g bound =
  let r = Int64.to_float (Int64.shift_right_logical (next_i64 g) 11) in
  r /. 9007199254740992.0 *. bound (* 2^53 *)

let bool g = Int64.logand (next_i64 g) 1L = 1L

let chance g p = float g 1.0 < p

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick g a =
  assert (Array.length a > 0);
  a.(int g (Array.length a))
