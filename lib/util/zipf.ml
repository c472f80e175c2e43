(* [guide.(b)] is the first rank [i] with [floor (cdf.(i) *. g) >= b],
   for [b] in [\[0, g\]].  A draw [u] with [floor (u *. g) = b] has its
   rank in [\[guide.(b), guide.(b + 1)\]]: every rank before [guide.(b)]
   has [cdf < u], and [cdf.(guide.(b + 1)) > u].  Both sides use the
   same product [x *. g], whose rounding is monotone in [x], so that
   holds exactly, not just up to rounding.  [u < 1] keeps [u *. g]
   below [g] (it rounds to [g] only from [1.]), so [b + 1 <= g]. *)
type t = { n : int; cdf : float array; g : float; guide : int array }

let create ?(theta = 0.99) n =
  if n <= 0 then invalid_arg (Printf.sprintf "Zipf.create: n = %d, must be positive" n);
  (* Weights, then their running share in place: one array, no copy. *)
  let cdf = Array.init n (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) theta) in
  let total = Array.fold_left ( +. ) 0.0 cdf in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (cdf.(i) /. total);
    cdf.(i) <- !acc
  done;
  cdf.(n - 1) <- 1.0;
  let buckets = max 1 (n / 8) in
  let g = float_of_int buckets in
  let guide = Array.make (buckets + 1) (n - 1) in
  let b = ref 0 in
  for i = 0 to n - 1 do
    let top = min buckets (int_of_float (cdf.(i) *. g)) in
    while !b <= top do
      guide.(!b) <- i;
      incr b
    done
  done;
  { n; cdf; g; guide }

let n t = t.n

let rank t u =
  let b = int_of_float (u *. t.g) in
  (* Smallest index in the bucket whose cdf >= u. *)
  let lo = ref t.guide.(b) and hi = ref t.guide.(b + 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

let sample t rng = rank t (Rng.float rng 1.0)
