type t = {
  sets : int;
  ways : int;
  tags : int array; (* sets*ways; -1 = invalid; else line number *)
  dirty : bool array;
  stamp : int array; (* LRU recency, global tick *)
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable writebacks : int;
}

let floor_pow2 n =
  let rec go p = if p * 2 <= n then go (p * 2) else p in
  if n <= 1 then 1 else go 1

let create ?(line_bytes = 64) ~bytes ~ways () =
  assert (ways > 0 && bytes >= line_bytes * ways);
  let sets = floor_pow2 (bytes / (line_bytes * ways)) in
  {
    sets;
    ways;
    tags = Array.make (sets * ways) (-1);
    dirty = Array.make (sets * ways) false;
    stamp = Array.make (sets * ways) 0;
    tick = 0;
    hits = 0;
    misses = 0;
    writebacks = 0;
  }

let set_of t line = line land (t.sets - 1)

(* Way index of a resident [line], or -1.  Early-exit scan: victim
   choice is only needed on a miss. *)
let find_hit t line =
  let base = set_of t line * t.ways in
  let limit = base + t.ways in
  let tags = t.tags in
  let i = ref base in
  while !i < limit && Array.unsafe_get tags !i <> line do incr i done;
  if !i < limit then !i else -1

let hit = -1
let miss_clean = -2

(* The result is a packed int ([hit] / [miss_clean] / the dirty
   victim's line number), so a lookup allocates nothing.  Clean victims
   need no action from the caller (data lives in the heap), so only
   dirty evictions are distinguished.  The variant-returning reference
   model in [test/test_memsim.ml] pins these transitions down; an edit
   here must keep them equal.  The hit path inlines into the caller;
   the miss stays out of line in [fill_miss]. *)
let[@inline never] fill_miss t ~line ~write =
  t.misses <- t.misses + 1;
  (* Victim: the first invalid way, else the least recent stamp (first
     minimum). *)
  let base = set_of t line * t.ways in
  let victim = ref base in
  let oldest = ref max_int in
  for i = base to base + t.ways - 1 do
    if !oldest >= 0 then
      if Array.unsafe_get t.tags i = -1 then begin
        victim := i;
        oldest := -1
      end
      else if Array.unsafe_get t.stamp i < !oldest then begin
        victim := i;
        oldest := Array.unsafe_get t.stamp i
      end
  done;
  let v = !victim in
  let old_tag = t.tags.(v) in
  let result =
    if old_tag >= 0 && t.dirty.(v) then begin
      t.writebacks <- t.writebacks + 1;
      old_tag
    end
    else miss_clean
  in
  t.tags.(v) <- line;
  t.dirty.(v) <- write;
  t.stamp.(v) <- t.tick;
  result

let[@inline] access_fast t ~line ~write =
  t.tick <- t.tick + 1;
  let f = find_hit t line in
  if f >= 0 then begin
    t.hits <- t.hits + 1;
    t.stamp.(f) <- t.tick;
    if write then t.dirty.(f) <- true;
    hit
  end
  else fill_miss t ~line ~write

let clean t ~line =
  let found = find_hit t line in
  if found >= 0 && t.dirty.(found) then begin
    t.dirty.(found) <- false;
    true
  end
  else false

let resident_dirty t ~line =
  let found = find_hit t line in
  found >= 0 && t.dirty.(found)

let dirty_lines (t : t) =
  let acc = ref [] in
  Array.iteri (fun i tag -> if tag >= 0 && t.dirty.(i) then acc := tag :: !acc) t.tags;
  !acc

let reset t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.dirty 0 (Array.length t.dirty) false;
  Array.fill t.stamp 0 (Array.length t.stamp) 0;
  t.tick <- 0;
  t.hits <- 0;
  t.misses <- 0;
  t.writebacks <- 0

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0;
  t.writebacks <- 0

let hits t = t.hits
let misses t = t.misses
let writebacks t = t.writebacks
