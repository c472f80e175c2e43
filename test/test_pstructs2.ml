(* Second pstructs suite: range scans, blobs and media images. *)

open Pstructs
module Ptm = Pstm.Ptm
module Sim = Memsim.Sim

let fixture ?heap_words () = Helpers.pstructs_fixture ?heap_words ()

(* ---------- btree range folds ---------- *)

let test_btree_fold_range () =
  let _, _, ptm = fixture () in
  let t = Bptree.create ptm in
  Ptm.atomic ptm (fun tx ->
      for k = 1 to 200 do
        ignore (Bptree.insert tx t ~key:k ~value:(k * 10))
      done);
  let sum =
    Ptm.atomic ptm (fun tx -> Bptree.fold_range tx t ~lo:50 ~hi:59 (fun acc _ v -> acc + v) 0)
  in
  Helpers.check_int "sum of values 500..590" 5450 sum;
  let empty =
    Ptm.atomic ptm (fun tx -> Bptree.fold_range tx t ~lo:1000 ~hi:2000 (fun acc _ _ -> acc + 1) 0)
  in
  Helpers.check_int "empty range" 0 empty

let prop_btree_range_matches_filter =
  Helpers.qtest ~count:25 "btree fold_range = filtered bindings"
    QCheck2.Gen.(triple (list (int_range 1 300)) (int_range 1 300) (int_range 0 100))
    (fun (keys, lo, span) ->
      let hi = lo + span in
      let _, _, ptm = fixture () in
      let t = Bptree.create ptm in
      List.iter
        (fun k -> Ptm.atomic ptm (fun tx -> ignore (Bptree.insert tx t ~key:k ~value:k)))
        keys;
      let got =
        Ptm.atomic ptm (fun tx ->
            List.rev (Bptree.fold_range tx t ~lo ~hi (fun acc k _ -> k :: acc) []))
      in
      let expect =
        List.filter (fun k -> k >= lo && k <= hi) (List.sort_uniq compare keys)
      in
      got = expect)

(* ---------- blobs ---------- *)

let test_blob_roundtrip () =
  let _, _, ptm = fixture () in
  Ptm.atomic ptm (fun tx ->
      let b = Pblob.alloc tx "hello, persistent world" in
      Helpers.check_int "length" 23 (Pblob.length tx b);
      Alcotest.(check string) "roundtrip" "hello, persistent world" (Pblob.get tx b));
  ()

let test_blob_all_lengths () =
  let _, _, ptm = fixture () in
  Ptm.atomic ptm (fun tx ->
      for len = 0 to 40 do
        let s = String.init len (fun i -> Char.chr (32 + ((i * 7) mod 90))) in
        let b = Pblob.alloc tx s in
        if Pblob.get tx b <> s then Alcotest.failf "roundtrip failed at length %d" len
      done)

let test_blob_set_and_compare () =
  let _, _, ptm = fixture () in
  let b = Ptm.atomic ptm (fun tx -> Pblob.alloc tx "aaaaaaaaaa") in
  Ptm.atomic ptm (fun tx ->
      Helpers.check_bool "equal before" true (Pblob.equal_string tx b "aaaaaaaaaa");
      Pblob.set tx b "bbbbbbbbbb";
      Helpers.check_bool "equal after" true (Pblob.equal_string tx b "bbbbbbbbbb");
      Helpers.check_bool "not equal to other" false (Pblob.equal_string tx b "bbbbbbbbbc");
      Helpers.check_bool "length mismatch false" false (Pblob.equal_string tx b "bb"));
  Alcotest.check_raises "set length mismatch"
    (Invalid_argument "Pblob.set: length mismatch")
    (fun () -> Ptm.atomic ptm (fun tx -> Pblob.set tx b "short"))

let test_blob_abort_rolls_back () =
  let _, _, ptm = fixture () in
  let b = Ptm.atomic ptm (fun tx -> Pblob.alloc tx "original..") in
  (try
     Ptm.atomic ptm (fun tx ->
         Pblob.set tx b "clobbered!";
         failwith "boom")
   with Failure _ -> ());
  Alcotest.(check string) "rolled back" "original.." (Ptm.atomic ptm (fun tx -> Pblob.get tx b))

let prop_blob_roundtrip =
  Helpers.qtest ~count:50 "blob roundtrips any string" QCheck2.Gen.(string_size (int_range 0 64))
    (fun s ->
      let _, _, ptm = fixture ~heap_words:(1 lsl 16) () in
      let b = Ptm.atomic ptm (fun tx -> Pblob.alloc tx s) in
      Ptm.atomic ptm (fun tx -> Pblob.get tx b) = s)

(* ---------- on-disk media image ---------- *)

let test_image_roundtrip_across_machines () =
  let path = Filename.temp_file "pdimg" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let cfg = Memsim.Config.make ~heap_words:(1 lsl 16) Memsim.Config.optane_adr in
      let sim = Sim.create cfg in
      let m = Sim.machine sim in
      let ptm = Ptm.create ~max_threads:8 ~log_words_per_thread:1024 m in
      let tree = Bptree.create ptm in
      Ptm.root_set ptm 0 (Bptree.descriptor tree);
      for k = 1 to 200 do
        Ptm.atomic ptm (fun tx -> ignore (Bptree.insert tx tree ~key:k ~value:(k * k)))
      done;
      Memsim.Sim.persist_all sim;
      Sim.save_image sim path;
      (* A brand-new machine, as a second process would see it. *)
      let sim' = Sim.load_image cfg path in
      let ptm' = Ptm.recover (Sim.machine sim') in
      let tree' = Bptree.attach ptm' (Ptm.root_get ptm' 0) in
      Bptree.check_invariants tree';
      Ptm.atomic ptm' (fun tx ->
          Alcotest.(check (option int)) "data crossed processes" (Some (150 * 150))
            (Bptree.lookup tx tree' 150)))

let test_truncated_image_rejected () =
  let path = Filename.temp_file "pdimg" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let cfg = Memsim.Config.make ~heap_words:(1 lsl 14) Memsim.Config.optane_adr in
      let sim = Sim.create cfg in
      Sim.save_image sim path;
      (* Tear the image mid-payload, as a crash during [save_image]
         would.  The loader must report corruption (with context), not
         leak [End_of_file] or hand back a half-image. *)
      let whole = In_channel.with_open_bin path In_channel.input_all in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (String.sub whole 0 (String.length whole / 2)));
      (match Sim.load_image cfg path with
      | _ -> Alcotest.fail "expected Corrupt_image for a torn image"
      | exception Machine.Corrupt_image msg ->
        let contains hay needle =
          let nh = String.length hay and nn = String.length needle in
          let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
          go 0
        in
        Helpers.check_bool "message carries the path" true (contains msg path));
      (* A missing image is a different condition: plain [Sys_error]. *)
      Sys.remove path;
      (match Sim.load_image cfg path with
      | _ -> Alcotest.fail "expected Sys_error for a missing image"
      | exception Sys_error _ -> ());
      (* Recreate so the [finally] remove has something to delete. *)
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc ""))

let test_image_size_mismatch_rejected () =
  let path = Filename.temp_file "pdimg" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let cfg = Memsim.Config.make ~heap_words:(1 lsl 14) Memsim.Config.optane_adr in
      let sim = Sim.create cfg in
      Sim.save_image sim path;
      let other = Memsim.Config.make ~heap_words:(1 lsl 15) Memsim.Config.optane_adr in
      match Sim.load_image other path with
      | _ -> Alcotest.fail "expected size mismatch"
      | exception Machine.Corrupt_image _ -> ())

(* Every single-byte flip at a seeded sample of positions (the whole
   header and checksum among them), every truncation and any trailing
   byte must raise [Corrupt_image] — no other exception, no crash, no
   half-image — and the clean image must load and save back to the
   same bytes.  The loader checks lengths, ranges and a checksum before
   it trusts a byte, so in-process loads of hostile files are safe. *)
let test_image_fuzz_rejected () =
  let path = Filename.temp_file "pdimg" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let read () = In_channel.with_open_bin path In_channel.input_all in
      let write s = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s) in
      (* An image with scattered nonzero words, so several chunks are
         written. *)
      let image ~heap_words =
        let cfg = Memsim.Config.make ~heap_words Memsim.Config.optane_adr in
        let sim = Sim.create cfg in
        let m = Sim.machine sim in
        for i = 0 to 63 do
          m.Machine.raw_write (i * 257 mod heap_words) ((i * 1_000_003) - 5_000)
        done;
        Sim.persist_all sim;
        Sim.save_image sim path;
        Sim.release sim;
        (cfg, read ())
      in
      let rejected cfg what s =
        write s;
        match Sim.load_image cfg path with
        | sim ->
          Sim.release sim;
          Alcotest.failf "%s: a damaged image loaded" what
        | exception Machine.Corrupt_image _ -> ()
      in
      let cfg, clean = image ~heap_words:(1 lsl 14) in
      let n = String.length clean in
      let rng = Repro_util.Rng.create 2024 in
      let positions =
        List.init 16 Fun.id @ List.init 8 (fun i -> n - 8 + i)
        @ List.init 300 (fun _ -> Repro_util.Rng.int rng n)
      in
      List.iter
        (fun pos ->
          let b = Bytes.of_string clean in
          Bytes.set_uint8 b pos (Bytes.get_uint8 b pos lxor (1 + Repro_util.Rng.int rng 255));
          rejected cfg (Printf.sprintf "flip at byte %d of %d" pos n) (Bytes.to_string b))
        positions;
      rejected cfg "one trailing byte" (clean ^ "\000");
      write clean;
      Memsim.Sim.with_ (Sim.load_image cfg path) (fun sim -> Sim.save_image sim path);
      Helpers.check_bool "clean image round-trips byte for byte" true (read () = clean);
      let cfg, small = image ~heap_words:1024 in
      for len = 0 to String.length small - 1 do
        rejected cfg (Printf.sprintf "truncated to %d bytes" len) (String.sub small 0 len)
      done)

let suite =
  [
    Alcotest.test_case "btree: fold_range" `Quick test_btree_fold_range;
    prop_btree_range_matches_filter;
    Alcotest.test_case "blob: roundtrip" `Quick test_blob_roundtrip;
    Alcotest.test_case "blob: all lengths" `Quick test_blob_all_lengths;
    Alcotest.test_case "blob: set/compare" `Quick test_blob_set_and_compare;
    Alcotest.test_case "blob: abort rollback" `Quick test_blob_abort_rolls_back;
    prop_blob_roundtrip;
    Alcotest.test_case "image: cross-process roundtrip" `Quick test_image_roundtrip_across_machines;
    Alcotest.test_case "image: size mismatch" `Quick test_image_size_mismatch_rejected;
    Alcotest.test_case "image: truncation -> Corrupt_image" `Quick test_truncated_image_rejected;
    Alcotest.test_case "image: every flip and truncation -> Corrupt_image" `Quick
      test_image_fuzz_rejected;
  ]
