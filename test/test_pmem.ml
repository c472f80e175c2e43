open Pmem

(* Direct (non-transactional) tx_ops for exercising the allocator in
   isolation: writes go straight to the heap; hooks run eagerly. *)
let direct_ops (m : Machine.t) =
  {
    Alloc.txr = m.Machine.raw_read;
    txw = m.Machine.raw_write;
    on_commit = (fun hook -> hook ());
    on_abort = (fun _ -> ());
  }

(* [(payload, words)] of every allocated block, read through the
   allocator's one arena walk. *)
let live_blocks reg =
  let acc = ref [] in
  Alloc.walk reg (function
    | Alloc.Block { payload; words; allocated = true } -> acc := (payload, words) :: !acc
    | _ -> ());
  !acc

let fixture () =
  let _sim, m = Helpers.sim_machine ~heap_words:(1 lsl 16) () in
  let reg = Region.create ~max_threads:8 ~log_words_per_thread:512 m in
  let alloc = Alloc.create reg in
  (m, reg, alloc)

(* ---------- region ---------- *)

let test_region_layout_disjoint () =
  let _, reg, _ = fixture () in
  Helpers.check_bool "log area after header" true (Region.log_base reg ~tid:0 > 0);
  Helpers.check_bool "data after logs" true
    (Region.data_start reg >= Region.log_base reg ~tid:7 + Region.log_words_per_thread reg);
  Helpers.check_bool "data before end" true (Region.data_start reg < Region.data_end reg)

let test_region_log_areas_disjoint () =
  let _, reg, _ = fixture () in
  let b0 = Region.log_base reg ~tid:0 and b1 = Region.log_base reg ~tid:1 in
  Helpers.check_int "adjacent log areas" (Region.log_words_per_thread reg) (b1 - b0)

let test_region_roots_roundtrip () =
  let _, reg, _ = fixture () in
  Region.root_set reg 0 4242;
  Region.root_set reg 15 99;
  Helpers.check_int "root 0" 4242 (Region.root_get reg 0);
  Helpers.check_int "root 15" 99 (Region.root_get reg 15);
  Helpers.check_int "unset root" 0 (Region.root_get reg 7)

let test_region_attach_preserves_layout () =
  let m, reg, _ = fixture () in
  Region.root_set reg 3 777;
  let reg' = Region.attach m in
  Helpers.check_int "same data_start" (Region.data_start reg) (Region.data_start reg');
  Helpers.check_int "root survives attach" 777 (Region.root_get reg' 3)

let test_region_attach_rejects_garbage () =
  let _sim, m = Helpers.sim_machine () in
  match Region.attach m with
  | _ -> Alcotest.fail "expected Corrupt_image"
  | exception Machine.Corrupt_image msg ->
    Helpers.check_bool "names the bad magic" true
      (String.length msg > 0 && String.sub msg 0 13 = "Region.attach")

(* ---------- allocator ---------- *)

let test_alloc_returns_disjoint_blocks () =
  let m, _, alloc = fixture () in
  let ops = direct_ops m in
  let blocks = List.init 50 (fun i -> (Alloc.alloc alloc ops ~words:8, 8 * (i mod 1 + 1))) in
  let sorted = List.sort compare (List.map fst blocks) in
  let rec disjoint = function
    | a :: (b :: _ as rest) -> b - a >= 9 && disjoint rest (* 8 payload + 1 header *)
    | _ -> true
  in
  Helpers.check_bool "blocks do not overlap" true (disjoint sorted)

let test_alloc_free_reuses () =
  let m, _, alloc = fixture () in
  let ops = direct_ops m in
  let a = Alloc.alloc alloc ops ~words:16 in
  Alloc.free alloc ops a;
  let b = Alloc.alloc alloc ops ~words:16 in
  Helpers.check_int "freed block is reused" a b

let test_alloc_size_class_rounding () =
  let m, reg, alloc = fixture () in
  let ops = direct_ops m in
  let a = Alloc.alloc alloc ops ~words:5 in
  Helpers.check_int "5 words rounds to class 6" 6 (List.assoc a (live_blocks reg))

let test_alloc_rejects_bad_sizes () =
  let m, _, alloc = fixture () in
  let ops = direct_ops m in
  Alcotest.check_raises "zero" (Invalid_argument "Alloc: bad object size 0") (fun () ->
      ignore (Alloc.alloc alloc ops ~words:0))

let test_alloc_large_objects () =
  let m, _, alloc = fixture () in
  let ops = direct_ops m in
  let a = Alloc.alloc alloc ops ~words:1500 in
  m.Machine.raw_write a 1;
  m.Machine.raw_write (a + 1499) 2;
  Helpers.check_int "large payload usable" 1 (m.Machine.raw_read a);
  Alloc.free alloc ops a;
  let b = Alloc.alloc alloc ops ~words:1400 in
  Helpers.check_int "large block reused first-fit" a b

let test_alloc_out_of_memory () =
  let _sim, m = Helpers.sim_machine ~heap_words:(1 lsl 15) () in
  let reg = Region.create ~max_threads:8 ~log_words_per_thread:512 m in
  let alloc = Alloc.create reg in
  let ops = direct_ops m in
  Alcotest.check_raises "exhaustion" Out_of_memory (fun () ->
      for _ = 1 to 100_000 do
        ignore (Alloc.alloc alloc ops ~words:512)
      done)

let test_alloc_live_blocks_oracle () =
  let m, reg, alloc = fixture () in
  let ops = direct_ops m in
  let a = Alloc.alloc alloc ops ~words:8 in
  let b = Alloc.alloc alloc ops ~words:16 in
  Alloc.free alloc ops a;
  let live = live_blocks reg in
  Helpers.check_bool "b live" true (List.mem_assoc b live);
  Helpers.check_bool "a not live" false (List.mem_assoc a live)

let test_alloc_abort_hook_restores_freelist () =
  let m, _, alloc = fixture () in
  (* Simulate an aborting transaction: collect abort hooks, run them. *)
  let aborts = ref [] in
  let ops =
    {
      Alloc.txr = m.Machine.raw_read;
      txw = (fun _ _ -> ()) (* aborted tx: writes never land *);
      on_commit = (fun _ -> ());
      on_abort = (fun hook -> aborts := hook :: !aborts);
    }
  in
  let a = Alloc.alloc alloc ops ~words:8 in
  List.iter (fun hook -> hook ()) !aborts;
  (* The block must be available again. *)
  let ops' = direct_ops m in
  let b = Alloc.alloc alloc ops' ~words:8 in
  Helpers.check_int "aborted allocation recycled" a b

let test_alloc_recover_rebuilds_freelists () =
  let m, reg, alloc = fixture () in
  let ops = direct_ops m in
  let a = Alloc.alloc alloc ops ~words:8 in
  let b = Alloc.alloc alloc ops ~words:8 in
  Alloc.free alloc ops a;
  (* "Crash": rebuild allocator state from headers alone. *)
  let alloc' = Alloc.recover reg in
  let live = live_blocks reg in
  Helpers.check_bool "b still live after recovery" true (List.mem_assoc b live);
  Helpers.check_bool "a free after recovery" false (List.mem_assoc a live);
  (* Freed block is reusable post-recovery (recovered lists land on tid 0). *)
  let c = Alloc.alloc alloc' ops ~words:8 in
  Helpers.check_int "recovered free block reused" a c

let prop_alloc_free_stress =
  Helpers.qtest ~count:30 "allocator stress keeps blocks disjoint"
    QCheck2.Gen.(list_size (int_range 1 200) (int_range 1 96))
    (fun sizes ->
      let m, reg, alloc = fixture () in
      let ops = direct_ops m in
      let rng = Repro_util.Rng.create 11 in
      let live = Hashtbl.create 64 in
      List.iter
        (fun words ->
          if Repro_util.Rng.chance rng 0.3 && Hashtbl.length live > 0 then begin
            (* free a random live block *)
            let keys = Hashtbl.fold (fun k _ acc -> k :: acc) live [] in
            let victim = List.nth keys (Repro_util.Rng.int rng (List.length keys)) in
            Alloc.free alloc ops victim;
            Hashtbl.remove live victim
          end
          else begin
            let a = Alloc.alloc alloc ops ~words in
            Hashtbl.replace live a words
          end)
        sizes;
      (* No two live blocks overlap: check via the header-scan oracle. *)
      let blocks = List.sort compare (live_blocks reg) in
      let rec disjoint = function
        | (a, wa) :: ((b, _) :: _ as rest) -> a + wa <= b - 1 && disjoint rest
        | _ -> true
      in
      disjoint blocks
      && Hashtbl.fold (fun k _ ok -> ok && List.mem_assoc k blocks) live true)

(* ---------- integrity checker ---------- *)

let test_check_clean_region () =
  let m, reg, alloc = fixture () in
  let ops = direct_ops m in
  let a = Alloc.alloc alloc ops ~words:8 in
  let b = Alloc.alloc alloc ops ~words:16 in
  ignore b;
  Alloc.free alloc ops a;
  let r = Check.run reg in
  Helpers.check_bool "clean" true (Check.is_clean r);
  Helpers.check_int "one live block" 1 r.Check.live_blocks;
  Helpers.check_int "one free block" 1 r.Check.free_blocks;
  Helpers.check_int "no leaks" 0 r.Check.leaked_arenas

let test_check_flags_bad_root () =
  let m, reg, _ = fixture () in
  m.Machine.raw_write (8 + 3) 7 (* root slot 3 -> header area *);
  let r = Check.run reg in
  Helpers.check_bool "corruption flagged" false (Check.is_clean r)

let test_check_counts_match_live_blocks () =
  let m, reg, alloc = fixture () in
  let ops = direct_ops m in
  for i = 1 to 20 do
    ignore (Alloc.alloc alloc ops ~words:(1 + (i mod 5)))
  done;
  let r = Check.run reg in
  Helpers.check_int "agrees with the allocator oracle"
    (List.length (live_blocks reg))
    r.Check.live_blocks

let test_check_after_simulated_crash () =
  (* End-to-end: crash a PTM workload, reboot, fsck the raw region
     BEFORE recovery (active logs reported, no corruption), then after
     recovery (still clean). *)
  let sim, m = Helpers.sim_machine ~heap_words:(1 lsl 16) () in
  let ptm = Pstm.Ptm.create ~max_threads:8 ~log_words_per_thread:1024 m in
  let base =
    Pstm.Ptm.atomic ptm (fun tx ->
        let a = Pstm.Ptm.alloc tx 4 in
        for i = 0 to 3 do
          Pstm.Ptm.write tx (a + i) 0
        done;
        a)
  in
  Pstm.Ptm.root_set ptm 0 base;
  Memsim.Sim.persist_all sim;
  Helpers.run_workers sim 4 ~crash_at:100_000 (fun _ ->
      for _ = 1 to 5_000 do
        Pstm.Ptm.atomic ptm (fun tx ->
            for i = 0 to 3 do
              Pstm.Ptm.write tx (base + i) (Pstm.Ptm.read tx (base + i) + 1)
            done)
      done);
  let sim' = Memsim.Sim.reboot sim in
  let m' = Memsim.Sim.machine sim' in
  let reg' = Region.attach m' in
  let before = Check.run reg' in
  Helpers.check_bool "no corruption right after crash" true (Check.is_clean before);
  ignore (Pstm.Ptm.recover m');
  let after = Check.run reg' in
  Helpers.check_bool "no corruption after recovery" true (Check.is_clean after);
  Helpers.check_bool "no pending logs after recovery" true
    (List.for_all
       (fun f -> f.Check.severity <> Check.Info)
       after.Check.findings)

(* ---------- decoder fuzzing ---------- *)

(* One seeded property per persistent-format decoder.  Each case boots
   a copy of a valid prepared image, flips, overwrites or truncates
   (zeroes to the end) a few words of the decoder's area, then checks
   the image and recovers it: both must return or raise
   [Corrupt_image], nothing else, and an image that recovery refuses
   must not check clean.  Every walk is bounded by its area, so a case
   cannot hang. *)
type mutation = Flip of int | Set of int | Truncate

let mutations =
  let open QCheck2.Gen in
  let mutation =
    oneof
      [
        map (fun b -> Flip b) (int_range 0 62);
        map (fun v -> Set v) (oneof [ int; int_range (-4) 70_000 ]);
        pure Truncate;
      ]
  in
  list_size (int_range 1 4) (pair nat mutation)

(* [prepared ()] is a persisted machine and the addresses of the area
   to break; [recover sim] recovers a broken copy. *)
let fuzz_decoder name ~seed prepared recover =
  let prepared = Lazy.from_fun prepared in
  Helpers.qtest ~seed name mutations (fun muts ->
      let image, area = Lazy.force prepared in
      Memsim.Sim.with_ (Memsim.Sim.reboot image) (fun sim ->
          let m = Memsim.Sim.machine sim in
          let n = Array.length area in
          List.iter
            (fun (i, mutation) ->
              let i = i mod n in
              let a = area.(i) in
              match mutation with
              | Flip b -> m.Machine.raw_write a (m.Machine.raw_read a lxor (1 lsl b))
              | Set v -> m.Machine.raw_write a v
              | Truncate -> Array.iter (fun a -> m.Machine.raw_write a 0) (Array.sub area i (n - i)))
            muts;
          let clean =
            match Check.run (Region.attach m) with
            | r -> Check.is_clean r
            | exception Machine.Corrupt_image _ -> false
          in
          match recover sim with () -> true | exception Machine.Corrupt_image _ -> not clean))

let span lo hi = Array.init (hi - lo) (fun i -> lo + i)
let recover_ptm sim = ignore (Pstm.Ptm.recover (Memsim.Sim.machine sim))

(* A PTM image with allocated and freed blocks (small and large) and
   two armed logs written by hand: thread 0's committed redo log and
   thread 1's active undo log. *)
let ptm_image () =
  let sim, m, ptm = Helpers.ptm_fixture ~max_threads:2 ~log_words_per_thread:64 () in
  let blocks =
    Pstm.Ptm.atomic ptm (fun tx -> List.map (Pstm.Ptm.alloc tx) [ 3; 8; 700; 20; 1500 ])
  in
  Pstm.Ptm.atomic ptm (fun tx -> Pstm.Ptm.free tx (List.nth blocks 1));
  let reg = Pstm.Ptm.region ptm in
  List.iter
    (fun (tid, status, entries) ->
      let base = Region.log_base reg ~tid in
      m.Machine.raw_write base status;
      List.iteri
        (fun i (addr, v) ->
          m.Machine.raw_write (Log.entry ~base i) addr;
          m.Machine.raw_write (Log.entry ~base i + 1) v)
        entries;
      m.Machine.raw_write (Log.entry ~base (List.length entries)) 0)
    [
      (0, Log.redo_committed, List.map (fun b -> (b, 41)) blocks);
      (1, Log.undo_active, [ (List.hd blocks, 5); (List.nth blocks 2 + 9, 6) ]);
    ];
  Memsim.Sim.persist_all sim;
  (sim, reg)

let fuzz_header =
  fuzz_decoder "fuzz: region header decoder" ~seed:39
    (fun () ->
      let sim, reg = ptm_image () in
      (sim, span 0 (8 + Region.roots reg)))
    recover_ptm

let fuzz_log =
  fuzz_decoder "fuzz: PTM log decoder" ~seed:40
    (fun () ->
      let sim, reg = ptm_image () in
      (sim, span (Region.log_base reg ~tid:0) (Region.snapshot_base reg)))
    recover_ptm

let fuzz_arenas =
  fuzz_decoder "fuzz: allocator arena decoder" ~seed:41
    (fun () ->
      let sim, reg = ptm_image () in
      let hw = (Region.machine reg).Machine.raw_read Region.high_water_addr in
      (sim, Array.append [| Region.high_water_addr |] (span (Region.data_start reg) hw)))
    recover_ptm

(* A FAMS image after a few syncs whose last journal is marked
   committed again, so recovery walks it. *)
let fuzz_snapshot =
  fuzz_decoder "fuzz: FAMS snapshot decoder" ~seed:42
    (fun () ->
      let words = 4096 in
      let sim, m = Helpers.sim_machine ~heap_words:(Fams.required_heap_words ~words) () in
      let fams = Fams.create ~words sim in
      ignore
        (Memsim.Sim.spawn sim (fun () ->
             List.iter
               (fun a ->
                 Fams.write fams a a;
                 Fams.write fams (a + 1000) a;
                 Fams.msync_atomic fams)
               [ 1; 9; 2000 ]));
      Memsim.Sim.run sim;
      let base = Region.snapshot_base (Fams.region fams) in
      m.Machine.raw_write (base + Snapshot.seq) 1;
      Memsim.Sim.persist_all sim;
      let entries = m.Machine.raw_read (base + Snapshot.count) in
      let journal_end = base + Snapshot.journal_off + (entries * (1 + Machine.Layout.words_per_line)) in
      (sim, span base journal_end))
    (fun sim -> ignore (Fams.recover sim))

let suite =
  [
    Alcotest.test_case "region: layout disjoint" `Quick test_region_layout_disjoint;
    Alcotest.test_case "region: per-thread logs" `Quick test_region_log_areas_disjoint;
    Alcotest.test_case "region: roots roundtrip" `Quick test_region_roots_roundtrip;
    Alcotest.test_case "region: attach" `Quick test_region_attach_preserves_layout;
    Alcotest.test_case "region: attach validates" `Quick test_region_attach_rejects_garbage;
    Alcotest.test_case "alloc: disjoint blocks" `Quick test_alloc_returns_disjoint_blocks;
    Alcotest.test_case "alloc: free/reuse" `Quick test_alloc_free_reuses;
    Alcotest.test_case "alloc: size classes" `Quick test_alloc_size_class_rounding;
    Alcotest.test_case "alloc: rejects bad sizes" `Quick test_alloc_rejects_bad_sizes;
    Alcotest.test_case "alloc: large objects" `Quick test_alloc_large_objects;
    Alcotest.test_case "alloc: out of memory" `Quick test_alloc_out_of_memory;
    Alcotest.test_case "alloc: live-blocks oracle" `Quick test_alloc_live_blocks_oracle;
    Alcotest.test_case "alloc: abort recycles" `Quick test_alloc_abort_hook_restores_freelist;
    Alcotest.test_case "alloc: crash recovery" `Quick test_alloc_recover_rebuilds_freelists;
    prop_alloc_free_stress;
    Alcotest.test_case "check: clean region" `Quick test_check_clean_region;
    Alcotest.test_case "check: bad root flagged" `Quick test_check_flags_bad_root;
    Alcotest.test_case "check: agrees with oracle" `Quick test_check_counts_match_live_blocks;
    Alcotest.test_case "check: crash then recover" `Quick test_check_after_simulated_crash;
    fuzz_header;
    fuzz_log;
    fuzz_arenas;
    fuzz_snapshot;
  ]
