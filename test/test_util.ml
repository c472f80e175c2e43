open Repro_util

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Helpers.check_int "same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_split_independent () =
  let g = Rng.create 7 in
  let a = Rng.split g and b = Rng.split g in
  let xs = List.init 32 (fun _ -> Rng.next a) in
  let ys = List.init 32 (fun _ -> Rng.next b) in
  Helpers.check_bool "streams differ" true (xs <> ys)

let test_rng_bounds () =
  let g = Rng.create 1 in
  for _ = 1 to 1000 do
    let v = Rng.int g 17 in
    Helpers.check_bool "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_in () =
  let g = Rng.create 2 in
  for _ = 1 to 1000 do
    let v = Rng.int_in g 5 9 in
    Helpers.check_bool "inclusive range" true (v >= 5 && v <= 9)
  done

let test_rng_chance_extremes () =
  let g = Rng.create 3 in
  for _ = 1 to 100 do
    Helpers.check_bool "p=1 always true" true (Rng.chance g 1.0);
    Helpers.check_bool "p=0 always false" false (Rng.chance g 0.0)
  done

let test_rng_shuffle_permutes () =
  let g = Rng.create 4 in
  let a = Array.init 100 Fun.id in
  Rng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 100 Fun.id) sorted

let test_zipf_range () =
  let z = Zipf.create 1000 in
  let g = Rng.create 5 in
  for _ = 1 to 1000 do
    let v = Zipf.sample z g in
    Helpers.check_bool "rank in range" true (v >= 0 && v < 1000)
  done

let test_zipf_skew () =
  let z = Zipf.create ~theta:0.99 1000 in
  let g = Rng.create 6 in
  let hits = Array.make 1000 0 in
  for _ = 1 to 20_000 do
    let v = Zipf.sample z g in
    hits.(v) <- hits.(v) + 1
  done;
  Helpers.check_bool "rank 0 much hotter than rank 500" true (hits.(0) > 10 * (hits.(500) + 1))

let test_zipf_uniform_theta0 () =
  let z = Zipf.create ~theta:0.0 4 in
  let g = Rng.create 7 in
  let hits = Array.make 4 0 in
  for _ = 1 to 40_000 do
    hits.(Zipf.sample z g) <- hits.(Zipf.sample z g) + 1
  done;
  Array.iter
    (fun h -> Helpers.check_bool "roughly uniform" true (h > 8_000 && h < 12_000))
    hits

let test_stats_mean_stddev () =
  let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Stats.mean xs);
  Alcotest.(check (float 1e-6)) "stddev" 2.13809 (Stats.stddev xs)

let test_stats_percentile () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  Alcotest.(check (float 1e-9)) "median" 3.0 (Stats.percentile xs 50.0);
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Stats.percentile xs 0.0);
  Alcotest.(check (float 1e-9)) "p100" 5.0 (Stats.percentile xs 100.0)

let test_stats_counter () =
  let c = Stats.counter () in
  List.iter (Stats.add c) [ 3.0; 1.0; 2.0 ];
  Helpers.check_int "count" 3 (Stats.count c);
  Alcotest.(check (float 1e-9)) "total" 6.0 (Stats.total c);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Stats.minimum c);
  Alcotest.(check (float 1e-9)) "max" 3.0 (Stats.maximum c);
  Alcotest.(check (float 1e-9)) "avg" 2.0 (Stats.average c)

let test_min_heap_orders () =
  let h = Min_heap.create () in
  List.iter (fun k -> Min_heap.push h ~key:k k) [ 5; 1; 4; 1; 3 ];
  let out = List.init 5 (fun _ -> match Min_heap.pop h with Some (k, _) -> k | None -> -1) in
  Alcotest.(check (list int)) "sorted" [ 1; 1; 3; 4; 5 ] out

let test_min_heap_fifo_ties () =
  let h = Min_heap.create () in
  Min_heap.push h ~key:1 "a";
  Min_heap.push h ~key:1 "b";
  Min_heap.push h ~key:1 "c";
  let order = List.init 3 (fun _ -> match Min_heap.pop h with Some (_, v) -> v | None -> "") in
  Alcotest.(check (list string)) "FIFO among equal keys" [ "a"; "b"; "c" ] order

let prop_min_heap_sorts =
  Helpers.qtest "min_heap sorts any list" QCheck2.Gen.(list small_int) (fun xs ->
      let h = Min_heap.create () in
      List.iter (fun x -> Min_heap.push h ~key:x x) xs;
      let rec drain acc =
        match Min_heap.pop h with Some (k, _) -> drain (k :: acc) | None -> List.rev acc
      in
      drain [] = List.sort compare xs)

(* Min_heap is the differential oracle for the scheduler's Int_heap.
   Drive both with the same interleaved push / pop / push_pop sequence
   (the oracle runs push then pop for the fused call) and require
   identical (key, payload) answers at every step — including the FIFO
   tie-break determinism rests on.  Keys come from a narrow range so a
   push_pop often ties the root, and pops often empty the heap. *)
type heap_op = Push of int | Pop | Push_pop of int

let prop_int_heap_matches_min_heap =
  let key = QCheck2.Gen.int_range 0 8 in
  let op_gen =
    QCheck2.Gen.(
      frequency
        [ (3, map (fun k -> Push k) key); (2, return Pop); (3, map (fun k -> Push_pop k) key) ])
  in
  Helpers.qtest "int_heap differentially equals min_heap (oracle)"
    QCheck2.Gen.(list op_gen)
    (fun ops ->
      let oracle = Min_heap.create () in
      let subject = Int_heap.create () in
      let payload = ref 0 in
      let popped_agree got =
        match Min_heap.pop oracle with
        | None -> got = -1
        | Some (k, v) -> got = v && Int_heap.last_key subject = k
      in
      List.for_all
        (fun op ->
          match op with
          | Push key ->
            incr payload;
            Min_heap.push oracle ~key !payload;
            Int_heap.push subject ~key !payload;
            true
          | Pop -> popped_agree (Int_heap.pop subject)
          | Push_pop key ->
            incr payload;
            Min_heap.push oracle ~key !payload;
            popped_agree (Int_heap.push_pop subject ~key !payload)
            && Int_heap.length subject = Min_heap.length oracle)
        ops
      && begin
           (* Drain whatever is left; orders must agree to the end. *)
           let rec drain () =
             let got = Int_heap.pop subject in
             popped_agree got && (got < 0 || drain ())
           in
           drain ()
         end)

let test_lru_eviction_order () =
  let lru = Lru.create ~capacity:2 in
  ignore (Lru.touch lru 1 ~dirty:false);
  ignore (Lru.touch lru 2 ~dirty:false);
  ignore (Lru.touch lru 1 ~dirty:false);
  (* LRU is now 2 *)
  (match Lru.touch lru 3 ~dirty:false with
  | `Miss (Some { Lru.key; _ }) -> Helpers.check_int "evicts LRU" 2 key
  | `Miss None | `Hit -> Alcotest.fail "expected eviction of key 2");
  Helpers.check_bool "1 still resident" true (Lru.mem lru 1)

let test_lru_dirty_tracking () =
  let lru = Lru.create ~capacity:4 in
  ignore (Lru.touch lru 1 ~dirty:true);
  ignore (Lru.touch lru 2 ~dirty:false);
  ignore (Lru.touch lru 2 ~dirty:true);
  ignore (Lru.touch lru 3 ~dirty:false);
  let dirty = List.sort compare (Lru.dirty_keys lru) in
  Alcotest.(check (list int)) "dirty keys" [ 1; 2 ] dirty

let test_lru_dirty_eviction_reported () =
  let lru = Lru.create ~capacity:1 in
  ignore (Lru.touch lru 9 ~dirty:true);
  match Lru.touch lru 8 ~dirty:false with
  | `Miss (Some { Lru.key; dirty }) ->
    Helpers.check_int "victim" 9 key;
    Helpers.check_bool "victim dirty" true dirty
  | `Miss None | `Hit -> Alcotest.fail "expected dirty eviction"

let prop_lru_capacity_respected =
  Helpers.qtest "lru never exceeds capacity" QCheck2.Gen.(list (int_bound 50)) (fun keys ->
      let lru = Lru.create ~capacity:8 in
      List.iter (fun k -> ignore (Lru.touch lru k ~dirty:false)) keys;
      Lru.size lru <= 8)

let test_int_vec_push_get () =
  let v = Int_vec.create ~capacity:1 () in
  for i = 0 to 99 do
    Int_vec.push v (i * i)
  done;
  Helpers.check_int "length" 100 (Int_vec.length v);
  Helpers.check_int "get 7" 49 (Int_vec.get v 7);
  Int_vec.clear v;
  Helpers.check_int "cleared" 0 (Int_vec.length v)

(* The inlined fast paths allocate nothing once the buffers are grown. *)
let test_int_vec_alloc_free () =
  let v = Int_vec.create () in
  Helpers.check_alloc_free "Int_vec push/get/clear"
    (Helpers.minor_words_per_iter (fun i ->
         Int_vec.push v i;
         ignore (Int_vec.get v (Int_vec.length v - 1) : int);
         if Int_vec.length v = 64 then Int_vec.clear v))

let test_int_table_alloc_free () =
  let t = Int_table.create 4 in
  Helpers.check_alloc_free "Int_table replace/find/clear"
    (Helpers.minor_words_per_iter (fun i ->
         Int_table.replace t (i land 63) i;
         ignore (Int_table.find t (i land 63) ~absent:0 : int);
         if i land 63 = 63 then Int_table.clear t))

(* Inlining keeps [assert]: the default build passes no -noassert. *)
let test_int_vec_get_checks_bounds () =
  let v = Int_vec.create () in
  Int_vec.push v 1;
  Helpers.check_bool "get at length raises Assert_failure" true
    (match Int_vec.get v (Int_vec.length v) with _ -> false | exception Assert_failure _ -> true)

let test_int_vec_rev_pairs () =
  let v = Int_vec.create () in
  List.iter (Int_vec.push v) [ 1; 10; 2; 20; 3; 30 ];
  let seen = ref [] in
  Int_vec.iter_rev_pairs (fun a b -> seen := (a, b) :: !seen) v;
  Alcotest.(check (list (pair int int)))
    "reverse pair order" [ (1, 10); (2, 20); (3, 30) ] !seen

(* Int_table against Stdlib.Hashtbl (with [replace] semantics) on one
   long-lived table per trace: it starts at 2 slots, so the distinct
   keys inserted between clears force several growths, and every clear
   must hide every key bound before it.  Keys include negatives and
   arbitrary ints; [min_int] is never a value, so it is a safe sentinel. *)
type int_table_op = Replace of int * int | Find of int | Mem of int | Clear

let prop_int_table_matches_hashtbl =
  let open QCheck2.Gen in
  let key = frequency [ (9, int_range (-64) 512); (1, int) ] in
  let op =
    frequency
      [
        (10, map2 (fun k v -> Replace (k, v)) key small_int);
        (4, map (fun k -> Find k) key);
        (3, map (fun k -> Mem k) key);
        (1, return Clear);
      ]
  in
  Helpers.qtest ~count:100 "int_table differentially equals Hashtbl"
    (list_size (int_range 200 2000) op)
    (fun ops ->
      let subject = Int_table.create 2 in
      let oracle = Hashtbl.create 16 in
      let absent = min_int in
      let step = function
        | Replace (k, v) ->
          Int_table.replace subject k v;
          Hashtbl.replace oracle k v;
          true
        | Find k ->
          Int_table.find subject k ~absent
          = (match Hashtbl.find_opt oracle k with Some v -> v | None -> absent)
        | Mem k -> Int_table.mem subject k = Hashtbl.mem oracle k
        | Clear ->
          let stale = List.of_seq (Hashtbl.to_seq_keys oracle) in
          Int_table.clear subject;
          Hashtbl.reset oracle;
          List.for_all
            (fun k -> (not (Int_table.mem subject k)) && Int_table.find subject k ~absent = absent)
            stale
      in
      List.for_all (fun o -> step o && Int_table.length subject = Hashtbl.length oracle) ops)

let test_int_table_clear_many () =
  let t = Int_table.create 4 in
  for round = 1 to 500 do
    for k = 0 to (round mod 97) + 3 do
      Int_table.replace t ((k * 7919) + round) round
    done;
    Helpers.check_int "length" ((round mod 97) + 4) (Int_table.length t);
    Int_table.clear t;
    Helpers.check_int "cleared" 0 (Int_table.length t);
    Helpers.check_bool "no stale key" false (Int_table.mem t round)
  done

let test_histogram_percentiles () =
  let h = Histogram.create () in
  for v = 1 to 1000 do
    Histogram.record h v
  done;
  Helpers.check_int "count" 1000 (Histogram.count h);
  let p50 = Histogram.percentile h 50.0 in
  Helpers.check_bool "p50 near 500" true (p50 > 450.0 && p50 < 550.0);
  let p99 = Histogram.percentile h 99.0 in
  Helpers.check_bool "p99 near 990" true (p99 > 930.0 && p99 <= 1024.0);
  Helpers.check_int "max" 1000 (Histogram.max_value h);
  Alcotest.(check (float 1.0)) "mean" 500.5 (Histogram.mean h)

let test_histogram_bounded_error () =
  let h = Histogram.create () in
  List.iter (Histogram.record h) [ 1; 17; 123_456; 9_999_999 ];
  (* Every recorded value's bucket representative is within 1/16. *)
  List.iter
    (fun v ->
      let h1 = Histogram.create () in
      Histogram.record h1 v;
      let rep = Histogram.percentile h1 50.0 in
      Helpers.check_bool
        (Printf.sprintf "value %d within bucket error (rep %.0f)" v rep)
        true
        (Float.abs (rep -. float_of_int v) /. float_of_int v < 0.08))
    [ 17; 123_456; 9_999_999 ]

let test_histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  Histogram.record a 10;
  Histogram.record b 1000;
  Histogram.merge_into ~src:a ~dst:b;
  Helpers.check_int "merged count" 2 (Histogram.count b);
  Helpers.check_int "merged max" 1000 (Histogram.max_value b)

let test_histogram_merge_fresh () =
  (* Empty ⊕ empty is empty; empty ⊕ x is x; inputs are untouched. *)
  let e = Histogram.merge (Histogram.create ()) (Histogram.create ()) in
  Helpers.check_int "empty+empty count" 0 (Histogram.count e);
  let a = Histogram.create () in
  List.iter (Histogram.record a) [ 5; 50; 500 ];
  let m = Histogram.merge (Histogram.create ()) a in
  Helpers.check_int "empty+a count" 3 (Histogram.count m);
  Helpers.check_int "empty+a max" 500 (Histogram.max_value m);
  Alcotest.(check (float 1e-9))
    "identity percentiles" (Histogram.percentile a 50.0) (Histogram.percentile m 50.0);
  Histogram.record m 5000;
  Helpers.check_int "src untouched" 3 (Histogram.count a)

let test_histogram_merge_disjoint () =
  (* Mismatched occupied buckets: a holds small values, b large ones. *)
  let a = Histogram.create () and b = Histogram.create () in
  for v = 1 to 100 do
    Histogram.record a v
  done;
  for v = 1_000_000 to 1_000_100 do
    Histogram.record b v
  done;
  let m = Histogram.merge a b in
  Helpers.check_int "count" 201 (Histogram.count m);
  Helpers.check_bool "p25 from a" true (Histogram.percentile m 25.0 < 200.0);
  Helpers.check_bool "p75 from b" true (Histogram.percentile m 75.0 > 500_000.0);
  Helpers.check_int "max from b" (Histogram.max_value b) (Histogram.max_value m)

let test_histogram_merge_list () =
  let mk vs =
    let h = Histogram.create () in
    List.iter (Histogram.record h) vs;
    h
  in
  Helpers.check_int "merge_list [] empty" 0 (Histogram.count (Histogram.merge_list []));
  let m = Histogram.merge_list [ mk [ 1; 2 ]; Histogram.create (); mk [ 30 ] ] in
  Helpers.check_int "merge_list count" 3 (Histogram.count m);
  Helpers.check_int "merge_list max" 30 (Histogram.max_value m)

let test_stats_counter_merge () =
  let a = Stats.counter () and b = Stats.counter () in
  List.iter (Stats.add a) [ 3.0; 1.0 ];
  List.iter (Stats.add b) [ 10.0 ];
  let m = Stats.merge a b in
  Helpers.check_int "count" 3 (Stats.count m);
  Alcotest.(check (float 1e-9)) "total" 14.0 (Stats.total m);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Stats.minimum m);
  Alcotest.(check (float 1e-9)) "max" 10.0 (Stats.maximum m);
  (* Merging an empty counter is the identity. *)
  let id = Stats.merge a (Stats.counter ()) in
  Helpers.check_int "id count" 2 (Stats.count id);
  Alcotest.(check (float 1e-9)) "id total" 4.0 (Stats.total id);
  Alcotest.(check (float 1e-9)) "id min" 1.0 (Stats.minimum id);
  Alcotest.(check (float 1e-9)) "id max" 3.0 (Stats.maximum id);
  (* Inputs untouched. *)
  Helpers.check_int "a untouched" 2 (Stats.count a);
  Helpers.check_int "b untouched" 1 (Stats.count b)

let test_table_cell_f_nonfinite () =
  Alcotest.(check string) "nan" "-" (Table.cell_f Float.nan);
  Alcotest.(check string) "inf" "-" (Table.cell_f Float.infinity);
  Alcotest.(check string) "-inf" "-" (Table.cell_f Float.neg_infinity);
  Alcotest.(check string) "finite" "1.50" (Table.cell_f 1.5)

let test_histogram_empty () =
  let h = Histogram.create () in
  Helpers.check_bool "empty percentile nan" true (Float.is_nan (Histogram.percentile h 50.0));
  Helpers.check_bool "empty mean nan" true (Float.is_nan (Histogram.mean h))

let test_histogram_single_sample () =
  (* One sample: every percentile must report that sample (within the
     bucket's relative error), and mean == max == the sample. *)
  let h = Histogram.create () in
  Histogram.record h 12_345;
  List.iter
    (fun p ->
      let v = Histogram.percentile h p in
      Helpers.check_bool
        (Printf.sprintf "p%.0f close to sample" p)
        true
        (Float.abs (v -. 12_345.0) /. 12_345.0 < 0.05))
    [ 0.0; 50.0; 95.0; 99.0; 100.0 ];
  Helpers.check_int "single max" 12_345 (Histogram.max_value h);
  Alcotest.(check (float 1e-9)) "single mean" 12_345.0 (Histogram.mean h)

let test_histogram_saturates () =
  (* Values at the top of the int range must land in the last bucket,
     not trap or wrap; max_int is 2^62 - 1, the largest OCaml int. *)
  let h = Histogram.create () in
  Histogram.record h max_int;
  Histogram.record h (max_int - 1);
  Histogram.record h 1;
  Helpers.check_int "count" 3 (Histogram.count h);
  Helpers.check_int "max saturates" max_int (Histogram.max_value h);
  Helpers.check_bool "p99 is huge" true (Histogram.percentile h 99.0 > 1e18);
  Helpers.check_bool "p0 is small" true (Histogram.percentile h 0.0 < 2.0)

let test_histogram_merge_list_identity () =
  (* merge_list [h] reproduces h exactly: same count, max and
     percentile curve. *)
  let h = Histogram.create () in
  List.iter (Histogram.record h) [ 3; 33; 333; 3_333 ];
  let m = Histogram.merge_list [ h ] in
  Helpers.check_int "identity count" (Histogram.count h) (Histogram.count m);
  Helpers.check_int "identity max" (Histogram.max_value h) (Histogram.max_value m);
  List.iter
    (fun p ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "identity p%.0f" p)
        (Histogram.percentile h p) (Histogram.percentile m p))
    [ 25.0; 50.0; 95.0; 99.0 ]

let test_histogram_percentile_monotone () =
  (* p50 <= p95 <= p99 <= max on an adversarial skewed sample. *)
  let h = Histogram.create () in
  for i = 1 to 500 do
    Histogram.record h i;
    Histogram.record h (i * i)
  done;
  let p50 = Histogram.percentile h 50.0 in
  let p95 = Histogram.percentile h 95.0 in
  let p99 = Histogram.percentile h 99.0 in
  Helpers.check_bool "p50 <= p95" true (p50 <= p95);
  Helpers.check_bool "p95 <= p99" true (p95 <= p99);
  Helpers.check_bool "p99 <= max" true (p99 <= float_of_int (Histogram.max_value h) *. 1.05)

let test_table_render_and_csv () =
  let t = Table.create ~title:"demo" ~header:[ "a"; "b" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_row t [ "3" ];
  let csv = Table.to_csv t in
  Alcotest.(check string) "csv" "a,b\n1,2\n3,\n" csv

let suite =
  [
    Alcotest.test_case "rng: determinism" `Quick test_rng_deterministic;
    Alcotest.test_case "rng: split independence" `Quick test_rng_split_independent;
    Alcotest.test_case "rng: int bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng: int_in bounds" `Quick test_rng_int_in;
    Alcotest.test_case "rng: chance extremes" `Quick test_rng_chance_extremes;
    Alcotest.test_case "rng: shuffle permutes" `Quick test_rng_shuffle_permutes;
    Alcotest.test_case "zipf: sample range" `Quick test_zipf_range;
    Alcotest.test_case "zipf: skew" `Quick test_zipf_skew;
    Alcotest.test_case "zipf: theta=0 uniform" `Quick test_zipf_uniform_theta0;
    Alcotest.test_case "stats: mean/stddev" `Quick test_stats_mean_stddev;
    Alcotest.test_case "stats: percentile" `Quick test_stats_percentile;
    Alcotest.test_case "stats: counter" `Quick test_stats_counter;
    Alcotest.test_case "min_heap: ordering" `Quick test_min_heap_orders;
    Alcotest.test_case "min_heap: FIFO ties" `Quick test_min_heap_fifo_ties;
    prop_min_heap_sorts;
    prop_int_heap_matches_min_heap;
    Alcotest.test_case "lru: eviction order" `Quick test_lru_eviction_order;
    Alcotest.test_case "lru: dirty tracking" `Quick test_lru_dirty_tracking;
    Alcotest.test_case "lru: dirty eviction" `Quick test_lru_dirty_eviction_reported;
    prop_lru_capacity_respected;
    Alcotest.test_case "int_vec: push/get/clear" `Quick test_int_vec_push_get;
    Alcotest.test_case "int_vec: rev pairs" `Quick test_int_vec_rev_pairs;
    Alcotest.test_case "int_vec: fast paths allocate nothing" `Quick test_int_vec_alloc_free;
    Alcotest.test_case "int_vec: get checks bounds" `Quick test_int_vec_get_checks_bounds;
    Alcotest.test_case "int_table: fast paths allocate nothing" `Quick test_int_table_alloc_free;
    prop_int_table_matches_hashtbl;
    Alcotest.test_case "int_table: hundreds of clears" `Quick test_int_table_clear_many;
    Alcotest.test_case "histogram: percentiles" `Quick test_histogram_percentiles;
    Alcotest.test_case "histogram: bounded error" `Quick test_histogram_bounded_error;
    Alcotest.test_case "histogram: merge" `Quick test_histogram_merge;
    Alcotest.test_case "histogram: merge fresh/identity" `Quick test_histogram_merge_fresh;
    Alcotest.test_case "histogram: merge disjoint buckets" `Quick test_histogram_merge_disjoint;
    Alcotest.test_case "histogram: merge_list" `Quick test_histogram_merge_list;
    Alcotest.test_case "histogram: single sample" `Quick test_histogram_single_sample;
    Alcotest.test_case "histogram: saturating values" `Quick test_histogram_saturates;
    Alcotest.test_case "histogram: merge_list identity" `Quick test_histogram_merge_list_identity;
    Alcotest.test_case "histogram: percentile monotone" `Quick test_histogram_percentile_monotone;
    Alcotest.test_case "stats: counter merge" `Quick test_stats_counter_merge;
    Alcotest.test_case "table: cell_f non-finite" `Quick test_table_cell_f_nonfinite;
    Alcotest.test_case "histogram: empty" `Quick test_histogram_empty;
    Alcotest.test_case "table: render/csv" `Quick test_table_render_and_csv;
  ]
