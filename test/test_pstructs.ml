open Pstructs
module Ptm = Pstm.Ptm
module Sim = Memsim.Sim
module Config = Memsim.Config

let fixture ?algorithm ?heap_words () = Helpers.pstructs_fixture ?algorithm ?heap_words ()

(* ---------- B+Tree ---------- *)

let test_btree_insert_lookup () =
  let _, _, ptm = fixture () in
  let t = Bptree.create ptm in
  Ptm.atomic ptm (fun tx ->
      for k = 1 to 100 do
        ignore (Bptree.insert tx t ~key:k ~value:(k * 10))
      done);
  Ptm.atomic ptm (fun tx ->
      for k = 1 to 100 do
        Alcotest.(check (option int)) "lookup" (Some (k * 10)) (Bptree.lookup tx t k)
      done;
      Alcotest.(check (option int)) "missing key" None (Bptree.lookup tx t 101));
  Bptree.check_invariants t

let test_btree_update_in_place () =
  let _, _, ptm = fixture () in
  let t = Bptree.create ptm in
  Ptm.atomic ptm (fun tx ->
      Helpers.check_bool "first insert new" true (Bptree.insert tx t ~key:5 ~value:1);
      Helpers.check_bool "second insert updates" false (Bptree.insert tx t ~key:5 ~value:2);
      Alcotest.(check (option int)) "updated" (Some 2) (Bptree.lookup tx t 5))

let test_btree_many_keys_splits () =
  let _, _, ptm = fixture () in
  let t = Bptree.create ptm in
  let n = 5_000 in
  let keys = Array.init n (fun i -> i + 1) in
  Repro_util.Rng.shuffle (Repro_util.Rng.create 3) keys;
  Array.iter
    (fun k -> Ptm.atomic ptm (fun tx -> ignore (Bptree.insert tx t ~key:k ~value:k)))
    keys;
  Bptree.check_invariants t;
  let alist = Bptree.to_alist t in
  Helpers.check_int "all keys present" n (List.length alist);
  Helpers.check_bool "sorted ascending" true
    (List.for_all2 (fun (k, _) i -> k = i) alist (List.init n (fun i -> i + 1)))

let test_btree_remove () =
  let _, _, ptm = fixture () in
  let t = Bptree.create ptm in
  Ptm.atomic ptm (fun tx ->
      for k = 1 to 200 do
        ignore (Bptree.insert tx t ~key:k ~value:k)
      done);
  Ptm.atomic ptm (fun tx ->
      for k = 1 to 200 do
        if k mod 2 = 0 then Helpers.check_bool "removed" true (Bptree.remove tx t k)
      done;
      Helpers.check_bool "absent remove" false (Bptree.remove tx t 2));
  Ptm.atomic ptm (fun tx ->
      Alcotest.(check (option int)) "odd survives" (Some 3) (Bptree.lookup tx t 3);
      Alcotest.(check (option int)) "even gone" None (Bptree.lookup tx t 4));
  Bptree.check_invariants t;
  Helpers.check_int "half remain" 100 (List.length (Bptree.to_alist t))

let prop_btree_matches_map =
  Helpers.qtest ~count:30 "btree behaves like Map"
    (Helpers.kv_ops_gen ~key_range:500 ~ops:3 ())
    (fun ops ->
      let module M = Map.Make (Int) in
      let _, _, ptm = fixture () in
      let t = Bptree.create ptm in
      let m = ref M.empty in
      List.iteri
        (fun i (key, op) ->
          Ptm.atomic ptm (fun tx ->
              match op with
              | 0 ->
                ignore (Bptree.insert tx t ~key ~value:i);
                m := M.add key i !m
              | 1 ->
                let expect = M.find_opt key !m in
                if Bptree.lookup tx t key <> expect then failwith "lookup mismatch"
              | _ ->
                let was = M.mem key !m in
                if Bptree.remove tx t key <> was then failwith "remove mismatch";
                m := M.remove key !m))
        ops;
      Bptree.check_invariants t;
      Bptree.to_alist t = M.bindings !m)

let test_btree_concurrent_inserts () =
  let sim, _, ptm = fixture () in
  let t = Bptree.create ptm in
  let per = 300 in
  Helpers.run_workers sim 4 (fun tid ->
      for i = 1 to per do
        let key = (tid * per) + i in
        Ptm.atomic ptm (fun tx -> ignore (Bptree.insert tx t ~key ~value:key))
      done);
  Bptree.check_invariants t;
  Helpers.check_int "all inserted under contention" (4 * per) (List.length (Bptree.to_alist t))

let test_btree_crash_consistency () =
  let sim, _, ptm = fixture () in
  let t = Bptree.create ptm in
  Ptm.root_set ptm 0 (Bptree.descriptor t);
  Sim.persist_all sim;
  Helpers.run_workers sim 4 ~crash_at:400_000 (fun tid ->
      let rng = Repro_util.Rng.create (50 + tid) in
      for _ = 1 to 5_000 do
        let key = 1 + Repro_util.Rng.int rng 2_000 in
        Ptm.atomic ptm (fun tx ->
            if Repro_util.Rng.chance rng 0.7 then ignore (Bptree.insert tx t ~key ~value:key)
            else ignore (Bptree.remove tx t key))
      done);
  Helpers.check_bool "crashed" true (Sim.crashed sim);
  let _sim', _m', ptm' = Helpers.reboot_and_recover sim in
  let t' = Bptree.attach ptm' (Ptm.root_get ptm' 0) in
  (* The recovered tree must be structurally sound and readable. *)
  Bptree.check_invariants t';
  Ptm.atomic ptm' (fun tx -> ignore (Bptree.insert tx t' ~key:999_999 ~value:1));
  Ptm.atomic ptm' (fun tx ->
      Alcotest.(check (option int)) "usable after recovery" (Some 1)
        (Bptree.lookup tx t' 999_999))

(* ---------- hash table ---------- *)

let test_hash_put_get_remove () =
  let _, _, ptm = fixture () in
  let h = Phashtable.create ptm ~buckets:512 in
  for k = 1 to 300 do
    Ptm.atomic ptm (fun tx ->
        Helpers.check_bool "fresh put" true (Phashtable.put tx h ~key:k ~value:(k * 2)))
  done;
  Ptm.atomic ptm (fun tx ->
      Alcotest.(check (option int)) "get" (Some 84) (Phashtable.get tx h 42);
      Helpers.check_bool "update" false (Phashtable.put tx h ~key:42 ~value:0);
      Alcotest.(check (option int)) "updated" (Some 0) (Phashtable.get tx h 42);
      Helpers.check_bool "remove" true (Phashtable.remove tx h 42);
      Alcotest.(check (option int)) "gone" None (Phashtable.get tx h 42);
      Helpers.check_bool "remove missing" false (Phashtable.remove tx h 42))

let test_hash_bucket_rounding () =
  let _, _, ptm = fixture () in
  let h = Phashtable.create ptm ~buckets:100 in
  Helpers.check_int "rounded up to a segment" 512 (Phashtable.buckets h)

let test_hash_chains_cover_collisions () =
  let _, _, ptm = fixture () in
  let h = Phashtable.create ptm ~buckets:512 in
  (* Far more keys than buckets: every op still correct via chains. *)
  for k = 1 to 2_000 do
    Ptm.atomic ptm (fun tx -> ignore (Phashtable.put tx h ~key:k ~value:k))
  done;
  Ptm.atomic ptm (fun tx ->
      Alcotest.(check (option int)) "deep chain get" (Some 1999) (Phashtable.get tx h 1999));
  let total = Array.fold_left ( + ) 0 (Phashtable.chain_lengths h) in
  Helpers.check_int "all nodes reachable" 2_000 total

(* A table of three segments is not a power of two: masking the hash
   with [nbuckets - 1] would reach only 1 024 of its 1 536 buckets. *)
let test_hash_reaches_every_bucket () =
  let _, _, ptm = fixture () in
  let h = Phashtable.create ptm ~buckets:(3 * 512) in
  Helpers.check_int "three segments" 1536 (Phashtable.buckets h);
  for k = 1 to 16_384 do
    Ptm.atomic ptm (fun tx -> ignore (Phashtable.put tx h ~key:k ~value:k))
  done;
  let reached =
    Array.fold_left (fun n len -> if len > 0 then n + 1 else n) 0 (Phashtable.chain_lengths h)
  in
  Helpers.check_int "buckets reached" 1536 reached

let prop_hash_matches_hashtbl =
  Helpers.qtest ~count:30 "hash table behaves like Hashtbl"
    (Helpers.kv_ops_gen ~key_range:300 ~ops:3 ())
    (fun ops ->
      let _, _, ptm = fixture () in
      let h = Phashtable.create ptm ~buckets:512 in
      let model = Hashtbl.create 64 in
      List.iteri
        (fun i (key, op) ->
          Ptm.atomic ptm (fun tx ->
              match op with
              | 0 ->
                ignore (Phashtable.put tx h ~key ~value:i);
                Hashtbl.replace model key i
              | 1 ->
                if Phashtable.get tx h key <> Hashtbl.find_opt model key then
                  failwith "get mismatch"
              | _ ->
                if Phashtable.remove tx h key <> Hashtbl.mem model key then
                  failwith "remove mismatch";
                Hashtbl.remove model key))
        ops;
      List.sort compare (Phashtable.to_alist h)
      = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) model []))

let test_hash_concurrent_disjoint () =
  let sim, _, ptm = fixture () in
  let h = Phashtable.create ptm ~buckets:1024 in
  Helpers.run_workers sim 4 (fun tid ->
      for i = 1 to 250 do
        let key = (tid * 1000) + i in
        Ptm.atomic ptm (fun tx -> ignore (Phashtable.put tx h ~key ~value:tid))
      done);
  Helpers.check_int "all present" 1000 (List.length (Phashtable.to_alist h))

let suite =
  [
    Alcotest.test_case "btree: insert/lookup" `Quick test_btree_insert_lookup;
    Alcotest.test_case "btree: upsert" `Quick test_btree_update_in_place;
    Alcotest.test_case "btree: splits at scale" `Quick test_btree_many_keys_splits;
    Alcotest.test_case "btree: remove" `Quick test_btree_remove;
    prop_btree_matches_map;
    Alcotest.test_case "btree: concurrent inserts" `Quick test_btree_concurrent_inserts;
    Alcotest.test_case "btree: crash consistency" `Quick test_btree_crash_consistency;
    Alcotest.test_case "hash: put/get/remove" `Quick test_hash_put_get_remove;
    Alcotest.test_case "hash: bucket rounding" `Quick test_hash_bucket_rounding;
    Alcotest.test_case "hash: collision chains" `Quick test_hash_chains_cover_collisions;
    Alcotest.test_case "hash: every bucket of 3 x 512 reached" `Quick
      test_hash_reaches_every_bucket;
    prop_hash_matches_hashtbl;
    Alcotest.test_case "hash: concurrent puts" `Quick test_hash_concurrent_disjoint;
  ]
