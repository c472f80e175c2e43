let mean xs =
  let n = Array.length xs in
  if n = 0 then nan else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let sorted = Array.copy xs in
    Array.sort compare sorted;
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    if lo = hi then sorted.(lo)
    else begin
      let frac = rank -. float_of_int lo in
      (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
    end
  end

type counter = {
  mutable count : int;
  mutable total : float;
  mutable minimum : float;
  mutable maximum : float;
}

let counter () = { count = 0; total = 0.0; minimum = infinity; maximum = neg_infinity }

let add c x =
  c.count <- c.count + 1;
  c.total <- c.total +. x;
  if x < c.minimum then c.minimum <- x;
  if x > c.maximum then c.maximum <- x

let merge a b =
  {
    count = a.count + b.count;
    total = a.total +. b.total;
    minimum = Float.min a.minimum b.minimum;
    maximum = Float.max a.maximum b.maximum;
  }

let count c = c.count
let total c = c.total
let minimum c = c.minimum
let maximum c = c.maximum
let average c = if c.count = 0 then nan else c.total /. float_of_int c.count
