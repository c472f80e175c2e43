type t = {
  sets : int;
  ways : int;
  (* sets*ways; each set's slots in recency order: slot 0 most recent,
     the last slot least recent.  -1 = invalid, else line number;
     invalid slots trail, and only [reset] makes one. *)
  tags : int array;
  dirty : bool array;
  mutable hits : int;
  mutable misses : int;
  mutable writebacks : int;
}

let floor_pow2 n =
  let rec go p = if p * 2 <= n then go (p * 2) else p in
  if n <= 1 then 1 else go 1

let line_bytes = 64

let create ~bytes ~ways =
  assert (ways > 0 && bytes >= line_bytes * ways);
  let sets = floor_pow2 (bytes / (line_bytes * ways)) in
  {
    sets;
    ways;
    tags = Array.make (sets * ways) (-1);
    dirty = Array.make (sets * ways) false;
    hits = 0;
    misses = 0;
    writebacks = 0;
  }

let[@inline] set_base t line = (line land (t.sets - 1)) * t.ways

(* Slot index of a resident [line], or -1.  Early-exit scan. *)
let find_hit t line =
  let base = set_base t line in
  let limit = base + t.ways in
  let tags = t.tags in
  let i = ref base in
  while !i < limit && Array.unsafe_get tags !i <> line do incr i done;
  if !i < limit then !i else -1

(* Make [line] its set's most recent slot: shift slots [base, i) back
   by one, dropping slot [i], and write [line] at [base]. *)
let[@inline] to_front t ~base i ~line ~dirty =
  let tags = t.tags and d = t.dirty in
  for j = i downto base + 1 do
    Array.unsafe_set tags j (Array.unsafe_get tags (j - 1));
    Array.unsafe_set d j (Array.unsafe_get d (j - 1))
  done;
  Array.unsafe_set tags base line;
  Array.unsafe_set d base dirty

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
  (* Victim: the last slot, invalid if any slot is, else the least
     recent line. *)
  let base = set_base t line in
  let v = base + t.ways - 1 in
  let old_tag = Array.unsafe_get t.tags v in
  let result =
    if old_tag >= 0 && Array.unsafe_get t.dirty v then begin
      t.writebacks <- t.writebacks + 1;
      old_tag
    end
    else miss_clean
  in
  to_front t ~base v ~line ~dirty:write;
  result

let[@inline] access_fast t ~line ~write =
  let f = find_hit t line in
  if f >= 0 then begin
    t.hits <- t.hits + 1;
    to_front t ~base:(set_base t line) f ~line ~dirty:(write || Array.unsafe_get t.dirty f);
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

let dirty_lines (t : t) =
  let acc = ref [] in
  Array.iteri (fun i tag -> if tag >= 0 && t.dirty.(i) then acc := tag :: !acc) t.tags;
  !acc

let reset t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.dirty 0 (Array.length t.dirty) false;
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
