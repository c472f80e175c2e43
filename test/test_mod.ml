(* MOD algorithm column: differential traces vs functional oracles on
   every durability domain, the machine-checked single-fence invariant,
   fallback coverage, epoch reclamation bounds and recovery. *)

open Pstructs
module Ptm = Pstm.Ptm
module Profile = Pstm.Profile
module Config = Memsim.Config
module M = Map.Make (Int)

let domains =
  [
    ("optane-adr", Config.optane_adr);
    ("optane-eadr", Config.optane_eadr);
    ("transient-cache", Config.transient_cache);
    ("pdram", Config.pdram);
    ("pdram-lite", Config.pdram_lite);
  ]

let fixture ?(model = Config.optane_adr) ?(algorithm = Ptm.Mod) () =
  Helpers.pstructs_fixture ~model ~algorithm ()

(* ---------- basic semantics ---------- *)

let test_btree_basic () =
  let _, _, ptm = fixture () in
  let t = Mod_bptree.create ptm in
  Ptm.atomic ptm (fun tx ->
      for k = 1 to 200 do
        Helpers.check_bool "new key" true (Mod_bptree.insert tx t ~key:k ~value:(k * 10))
      done);
  Ptm.atomic ptm (fun tx ->
      for k = 1 to 200 do
        Alcotest.(check (option int)) "lookup" (Some (k * 10)) (Mod_bptree.lookup tx t k)
      done;
      Alcotest.(check (option int)) "missing" None (Mod_bptree.lookup tx t 1000);
      Helpers.check_bool "replace" false (Mod_bptree.insert tx t ~key:7 ~value:0);
      Helpers.check_bool "remove" true (Mod_bptree.remove tx t 8);
      Helpers.check_bool "absent remove" false (Mod_bptree.remove tx t 8));
  Mod_bptree.check_invariants t;
  Helpers.check_int "size" 199 (List.length (Mod_bptree.to_alist t));
  Ptm.atomic ptm (fun tx ->
      Helpers.check_int "fold_range sum of keys 10..20"
        (List.fold_left ( + ) 0 (List.init 11 (fun i -> 10 + i)))
        (Mod_bptree.fold_range tx t ~lo:10 ~hi:20 (fun acc k _ -> acc + k) 0))

let test_btree_shuffled_splits () =
  let _, _, ptm = fixture () in
  let t = Mod_bptree.create ptm in
  let n = 3_000 in
  let keys = Array.init n (fun i -> i + 1) in
  Repro_util.Rng.shuffle (Repro_util.Rng.create 11) keys;
  Array.iter
    (fun k -> Ptm.atomic ptm (fun tx -> ignore (Mod_bptree.insert tx t ~key:k ~value:k)))
    keys;
  Mod_bptree.check_invariants t;
  let alist = Mod_bptree.to_alist t in
  Helpers.check_int "all present" n (List.length alist);
  Helpers.check_bool "sorted" true
    (List.for_all2 (fun (k, _) i -> k = i) alist (List.init n (fun i -> i + 1)))

let test_hash_basic () =
  let _, _, ptm = fixture () in
  let t = Mod_phashtable.create ptm ~buckets:256 in
  Ptm.atomic ptm (fun tx ->
      for k = 1 to 300 do
        Helpers.check_bool "new key" true (Mod_phashtable.put tx t ~key:k ~value:(-k))
      done);
  Ptm.atomic ptm (fun tx ->
      for k = 1 to 300 do
        Alcotest.(check (option int)) "get" (Some (-k)) (Mod_phashtable.get tx t k)
      done;
      Alcotest.(check (option int)) "missing" None (Mod_phashtable.get tx t 999);
      Helpers.check_bool "replace" false (Mod_phashtable.put tx t ~key:5 ~value:55);
      Helpers.check_bool "remove" true (Mod_phashtable.remove tx t 6);
      Helpers.check_bool "absent remove" false (Mod_phashtable.remove tx t 6));
  Mod_phashtable.check_invariants t;
  Helpers.check_int "size" 299 (List.length (Mod_phashtable.to_alist t))

(* ---------- differential traces on every durability domain ----------

   One generated op trace is replayed against the MOD structure on
   every domain and against a plain functional oracle; per-op results
   and the final-state digest must agree everywhere.  Ops: (key, code)
   with code 0 = insert, 1 = lookup, 2 = remove, 3 = iterate. *)

let digest_of_alist alist =
  List.fold_left (fun acc (k, v) -> Hashtbl.hash (acc, k, v)) 0x811C9DC5 alist

let trace_gen = Helpers.kv_ops_gen ~size:(10, 45) ~key_range:80 ~ops:4 ()

let replay_btree model ops =
  let _, _, ptm = fixture ~model () in
  let t = Mod_bptree.create ptm in
  let m = ref M.empty in
  List.iteri
    (fun i (key, code) ->
      Ptm.atomic ptm (fun tx ->
          match code with
          | 0 ->
            if Mod_bptree.insert tx t ~key ~value:i <> not (M.mem key !m) then
              failwith "insert disagreement";
            m := M.add key i !m
          | 1 ->
            if Mod_bptree.lookup tx t key <> M.find_opt key !m then
              failwith "lookup disagreement"
          | 2 ->
            if Mod_bptree.remove tx t key <> M.mem key !m then failwith "remove disagreement";
            m := M.remove key !m
          | _ ->
            let got = Mod_bptree.fold_range tx t ~lo:1 ~hi:max_int (fun acc k v -> (k, v) :: acc) [] in
            if List.rev got <> M.bindings !m then failwith "iterate disagreement"))
    ops;
  Mod_bptree.check_invariants t;
  if Mod_bptree.to_alist t <> M.bindings !m then failwith "final state disagreement";
  digest_of_alist (Mod_bptree.to_alist t)

let replay_hash model ops =
  let _, _, ptm = fixture ~model () in
  let t = Mod_phashtable.create ptm ~buckets:64 in
  let h = Hashtbl.create 64 in
  List.iteri
    (fun i (key, code) ->
      Ptm.atomic ptm (fun tx ->
          match code with
          | 0 ->
            if Mod_phashtable.put tx t ~key ~value:i <> not (Hashtbl.mem h key) then
              failwith "put disagreement";
            Hashtbl.replace h key i
          | 1 ->
            if Mod_phashtable.get tx t key <> Hashtbl.find_opt h key then
              failwith "get disagreement"
          | 2 ->
            if Mod_phashtable.remove tx t key <> Hashtbl.mem h key then
              failwith "remove disagreement";
            Hashtbl.remove h key
          | _ ->
            let got = List.sort compare (Mod_phashtable.to_alist t) in
            let want = List.sort compare (Hashtbl.fold (fun k v a -> (k, v) :: a) h []) in
            if got <> want then failwith "iterate disagreement"))
    ops;
  Mod_phashtable.check_invariants t;
  let got = List.sort compare (Mod_phashtable.to_alist t) in
  let want = List.sort compare (Hashtbl.fold (fun k v a -> (k, v) :: a) h []) in
  if got <> want then failwith "final state disagreement";
  digest_of_alist got

let cross_domain replay ops =
  match List.map (fun (_, model) -> replay model ops) domains with
  | [] -> true
  | d :: rest ->
    if not (List.for_all (( = ) d) rest) then failwith "digest differs across domains";
    true

let prop_btree_traces =
  Helpers.qtest ~count:160 "mod btree matches Map on all domains" trace_gen
    (cross_domain replay_btree)

let prop_hash_traces =
  Helpers.qtest ~count:160 "mod hashtable matches Hashtbl on all domains" trace_gen
    (cross_domain replay_hash)

(* ---------- fence accounting: the MOD invariant, machine-checked ----------

   On ADR every MOD update commits with exactly one ordering fence (the
   shadow sweep); lookups fence zero times.  Under eADR-class domains
   the sweep disappears entirely: zero fences AND zero flushes — the
   crossover where MOD's advantage collapses. *)

let profile_fences_flushes model ops =
  let sim, m, ptm = fixture ~model () in
  ignore sim;
  let t = Mod_bptree.create ptm in
  let p = Profile.create m in
  Ptm.set_profiler ptm (Some p);
  ops ptm t;
  Ptm.set_profiler ptm None;
  let r = Profile.run_total p in
  (r.fences, r.flushes)

let update_ops n ptm t =
  for k = 1 to n do
    Ptm.atomic ptm (fun tx -> ignore (Mod_bptree.insert tx t ~key:k ~value:k))
  done;
  for k = 1 to n / 2 do
    Ptm.atomic ptm (fun tx -> ignore (Mod_bptree.remove tx t k))
  done

let test_fence_per_op_adr () =
  let n = 120 in
  let fences, flushes = profile_fences_flushes Config.optane_adr (update_ops n) in
  Helpers.check_int "exactly one fence per update op on ADR" (n + (n / 2)) fences;
  Helpers.check_bool "flushes issued on ADR" true (flushes > 0)

let test_no_fences_on_eadr_class () =
  List.iter
    (fun (name, model) ->
      let fences, flushes = profile_fences_flushes model (update_ops 60) in
      Helpers.check_int (name ^ ": zero ordering fences") 0 fences;
      Helpers.check_int (name ^ ": zero flushes") 0 flushes)
    [ ("optane-eadr", Config.optane_eadr); ("transient-cache", Config.transient_cache) ]

let test_lookups_fence_free () =
  let fences, _ =
    profile_fences_flushes Config.optane_adr (fun ptm t ->
        Ptm.atomic ptm (fun tx -> ignore (Mod_bptree.insert tx t ~key:1 ~value:1));
        for _ = 1 to 50 do
          Ptm.atomic ptm (fun tx -> ignore (Mod_bptree.lookup tx t 1))
        done)
  in
  Helpers.check_int "one update, fifty lookups: one fence" 1 fences

(* ---------- redo fallback for non-MOD-shaped transactions ---------- *)

let test_fallback_two_home_words () =
  List.iter
    (fun (_, model) ->
      let _, m, ptm = fixture ~model () in
      (* Two separately published words... *)
      let a = Ptm.atomic ptm (fun tx -> let a = Ptm.alloc tx 2 in Ptm.write tx a 1; Ptm.write tx (a + 1) 2; a) in
      (* ... then a transfer touching both: two distinct non-fresh
         words, not a root-swap shape — must fall back and stay
         atomic. *)
      Ptm.atomic ptm (fun tx ->
          Ptm.write tx a (Ptm.read tx a - 1);
          Ptm.write tx (a + 1) (Ptm.read tx (a + 1) + 1));
      Helpers.check_int "word 0" 0 (m.Machine.raw_read a);
      Helpers.check_int "word 1" 3 (m.Machine.raw_read (a + 1));
      let st = Ptm.Stats.get ptm in
      Helpers.check_int "both transactions committed" 2 st.Ptm.Stats.commits)
    domains

let test_fallback_matches_oracle () =
  (* A mixed workload where every op ALSO bumps a shared counter word —
     forcing the fallback on every update — must still match the
     oracle.  Covers the materialized-buffer path end to end. *)
  let _, m, ptm = fixture () in
  let t = Mod_bptree.create ptm in
  let counter = Ptm.atomic ptm (fun tx -> let c = Ptm.alloc tx 1 in Ptm.write tx c 0; c) in
  let oracle = ref M.empty in
  for k = 1 to 100 do
    Ptm.atomic ptm (fun tx ->
        ignore (Mod_bptree.insert tx t ~key:k ~value:k);
        Ptm.write tx counter (Ptm.read tx counter + 1));
    oracle := M.add k k !oracle
  done;
  Helpers.check_int "counter" 100 (m.Machine.raw_read counter);
  Mod_bptree.check_invariants t;
  Helpers.check_bool "state matches" true (Mod_bptree.to_alist t = M.bindings !oracle)

(* ---------- epoch reclamation ---------- *)

let test_reclamation_bounded () =
  let _, _, ptm = fixture () in
  let t = Mod_bptree.create ptm in
  (* Hammer one key range; path copies retire constantly.  With no
     concurrent snapshots the horizon advances every commit, so the
     retire list must stay near-empty and the allocator's live-block
     count must not grow with op count. *)
  for round = 1 to 40 do
    for k = 1 to 50 do
      Ptm.atomic ptm (fun tx -> ignore (Mod_bptree.insert tx t ~key:k ~value:round))
    done
  done;
  Mod_bptree.reclaim t;
  Helpers.check_int "retire list drained" 0 (Mod_bptree.retired_blocks t);
  let live = (Pmem.Check.run (Ptm.region ptm)).Pmem.Check.live_blocks in
  (* 50 keys at fanout 14: a handful of nodes plus descriptor. *)
  Helpers.check_bool (Printf.sprintf "live blocks bounded (%d)" live) true (live < 40)

let test_hash_reclamation_bounded () =
  let _, _, ptm = fixture () in
  let t = Mod_phashtable.create ptm ~buckets:16 in
  for round = 1 to 40 do
    for k = 1 to 30 do
      Ptm.atomic ptm (fun tx -> ignore (Mod_phashtable.put tx t ~key:k ~value:round))
    done
  done;
  Mod_phashtable.reclaim t;
  Helpers.check_int "retire list drained" 0 (Mod_phashtable.retired_blocks t);
  let live = (Pmem.Check.run (Ptm.region ptm)).Pmem.Check.live_blocks in
  Helpers.check_bool (Printf.sprintf "live blocks bounded (%d)" live) true (live < 80)

(* ---------- recovery: the root swap is the recovery story ---------- *)

let test_recovery_buffered_prefix () =
  List.iter
    (fun (name, model) ->
      let sim, _, ptm = fixture ~model () in
      let t = Mod_bptree.create ptm in
      Ptm.root_set ptm 0 (Mod_bptree.descriptor t);
      let n = 60 in
      for k = 1 to n do
        Ptm.atomic ptm (fun tx -> ignore (Mod_bptree.insert tx t ~key:k ~value:k))
      done;
      let _, _, ptm' = Helpers.reboot_and_recover ~algorithm:Ptm.Mod sim in
      let t' = Mod_bptree.attach ptm' (Ptm.root_get ptm' 0) in
      Mod_bptree.check_invariants t';
      let recovered = Mod_bptree.to_alist t' in
      let full = List.init n (fun i -> (i + 1, i + 1)) in
      let prev = List.init (n - 1) (fun i -> (i + 1, i + 1)) in
      (* Buffered durability: recovery sees the swept root — the full
         state, or at worst the state one op back (the final root swap
         was never fenced). *)
      Helpers.check_bool
        (name ^ ": recovered = committed or committed-1")
        true
        (recovered = full || recovered = prev))
    domains

let suite =
  [
    Alcotest.test_case "mod btree: basic ops" `Quick test_btree_basic;
    Alcotest.test_case "mod btree: shuffled splits" `Quick test_btree_shuffled_splits;
    Alcotest.test_case "mod hashtable: basic ops" `Quick test_hash_basic;
    prop_btree_traces;
    prop_hash_traces;
    Alcotest.test_case "fence accounting: 1 fence/op on ADR" `Quick test_fence_per_op_adr;
    Alcotest.test_case "fence accounting: 0 on eADR class" `Quick test_no_fences_on_eadr_class;
    Alcotest.test_case "fence accounting: lookups fence-free" `Quick test_lookups_fence_free;
    Alcotest.test_case "fallback: two home words" `Quick test_fallback_two_home_words;
    Alcotest.test_case "fallback: forced, matches oracle" `Quick test_fallback_matches_oracle;
    Alcotest.test_case "reclamation: btree bounded" `Quick test_reclamation_bounded;
    Alcotest.test_case "reclamation: hashtable bounded" `Quick test_hash_reclamation_bounded;
    Alcotest.test_case "recovery: buffered prefix on all domains" `Quick
      test_recovery_buffered_prefix;
  ]
