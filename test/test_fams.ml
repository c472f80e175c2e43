(* FAMS (failure-atomic msync): unit roundtrips through crash recovery,
   the dirty-tracker differential property, phase-accounting exactness,
   the granularity x durability-domain crash matrix, and mutation tests
   proving the oracle rejects injected protocol bugs. *)

module Config = Memsim.Config
module Sim = Memsim.Sim
module Dirty = Memsim.Dirty
module Layout = Machine.Layout
module Engine = Crashtest.Engine
module Scenarios = Crashtest.Scenarios
module Profile = Pstm.Profile

let seed = 1

(* ---------- msync roundtrip through reboot + recovery ---------- *)

let fams_fixture ?(model = Config.optane_adr) ~granularity ~words () =
  let heap_words = Fams.required_heap_words ~words in
  let cfg = Config.make ~heap_words ~track_media:true model in
  let sim = Sim.create cfg in
  let fams = Fams.create ~granularity ~words sim in
  (* Declare the freshly formatted region durable, as a real mkfs
     would, before the measured run dirties anything. *)
  Sim.persist_all sim;
  (sim, fams)

(* Three scattered synced writes survive the reboot; a write after the
   last sync does not (FAMS durability is the last completed sync). *)
let test_roundtrip model granularity () =
  let words = 4096 in
  let sim, fams = fams_fixture ~model ~granularity ~words () in
  ignore
    (Sim.spawn sim (fun () ->
         Fams.write fams 0 11;
         Fams.write fams 777 22;
         Fams.write fams 1500 33;
         Fams.msync_atomic fams;
         Fams.write fams 5 99));
  Sim.run sim;
  let st = Fams.stats fams in
  Helpers.check_int "one sync" 1 st.Fams.Stats.syncs;
  (* 0, 777 and 1500 land on three distinct lines in three distinct
     pages, so both granularities journal exactly three units. *)
  Helpers.check_int "three journal entries" 3 st.Fams.Stats.journal_entries;
  let sim2 = Sim.reboot sim in
  let fams2 = Fams.recover sim2 in
  Helpers.check_bool "granularity survives recovery" true
    (Fams.granularity fams2 = granularity);
  List.iter
    (fun (a, v) ->
      Helpers.check_int (Printf.sprintf "word %d after recovery" a) v (Fams.raw_read fams2 a))
    [ (0, 11); (777, 22); (1500, 33); (5, 0) ]

(* Line tracking journals 9 words per dirty line, page tracking 513 per
   dirty page: on the same sparse store set line amplification must be
   strictly lower. *)
let test_write_amp_direction () =
  let run granularity =
    let words = 4096 in
    let sim, fams = fams_fixture ~granularity ~words () in
    ignore
      (Sim.spawn sim (fun () ->
           Fams.write fams 0 11;
           Fams.write fams 777 22;
           Fams.write fams 1500 33;
           Fams.msync_atomic fams));
    Sim.run sim;
    Fams.Stats.write_amp (Fams.stats fams)
  in
  let line = run Fams.Line and page = run Fams.Page in
  Helpers.check_bool
    (Printf.sprintf "line write amp (%.1f) < page write amp (%.1f)" line page)
    true (line < page)

(* A sync with nothing dirty is bookkeeping only. *)
let test_empty_sync () =
  let sim, fams = fams_fixture ~granularity:Fams.Line ~words:1024 () in
  ignore (Sim.spawn sim (fun () -> Fams.msync_atomic fams));
  Sim.run sim;
  let st = Fams.stats fams in
  Helpers.check_int "sync counted" 1 st.Fams.Stats.syncs;
  Helpers.check_int "no journal entries" 0 st.Fams.Stats.journal_entries;
  Helpers.check_int "no fences" 0 st.Fams.Stats.fences;
  Helpers.check_int "no flushes" 0 st.Fams.Stats.flushes

(* ---------- dirty tracker vs reference model ---------- *)

(* Window: five pages starting one page in, so out-of-window stores on
   both sides must be ignored. *)
let dw_lo = Layout.words_per_page

let dw_hi = dw_lo + (5 * Layout.words_per_page)

(* Replay a store trace into both the bitmap and a Hashtbl reference
   model, then require identical page/line sets in iteration order —
   including after [clear]. *)
let dirty_matches_model runs =
  let d = Dirty.create ~lo:dw_lo ~hi:dw_hi in
  let pages = Hashtbl.create 16 and lines = Hashtbl.create 64 in
  List.iter
    (fun (start, len) ->
      for i = 0 to len - 1 do
        let addr = start + i in
        Dirty.note d addr;
        if addr >= dw_lo && addr < dw_hi then begin
          Hashtbl.replace pages (addr / Layout.words_per_page * Layout.words_per_page) ();
          Hashtbl.replace lines (addr / Layout.words_per_line * Layout.words_per_line) ()
        end
      done)
    runs;
  let sorted h = Hashtbl.fold (fun k () acc -> k :: acc) h [] |> List.sort compare in
  let model_pages = sorted pages and model_lines = sorted lines in
  let got_pages = ref [] in
  Dirty.iter_dirty_pages d (fun p -> got_pages := p :: !got_pages);
  let got_pages = List.rev !got_pages in
  let got_lines = ref [] in
  Dirty.iter_dirty_pages d (fun p ->
      Dirty.iter_dirty_lines_of_page d p (fun l -> got_lines := l :: !got_lines));
  let got_lines = List.rev !got_lines in
  let populated_ok = got_pages = model_pages && got_lines = model_lines in
  Dirty.clear d;
  let cleared = ref true in
  Dirty.iter_dirty_pages d (fun _ -> cleared := false);
  populated_ok && !cleared

(* Runs start anywhere around the window (including outside) and span
   up to 600 words, so they straddle line and page boundaries. *)
let dirty_runs_gen =
  let open QCheck2.Gen in
  list_size (int_range 0 24)
    (pair (int_range (dw_lo - 700) (dw_hi + 100)) (int_range 1 600))

(* ---------- phase accounting exactness ---------- *)

(* Mirrors the PTM phase-accounting suite: every sync nanosecond must
   be attributed to exactly one Snap_* phase, and the profiler's
   per-phase fence/flush counters must agree with [Fams.Stats]. *)
let test_phase_exactness () =
  let r =
    Workloads.Fams_bench.run ~duration_ns:200_000 ~model:Config.optane_adr
      ~granularity:Fams.Line Workloads.Fams_bench.bank
  in
  let p = r.Workloads.Fams_bench.profile in
  let st = r.Workloads.Fams_bench.fams in
  Helpers.check_bool "bench performed syncs" true (st.Fams.Stats.syncs > 0);
  List.iter
    (fun tid ->
      let txn = Profile.txn_ns p ~tid in
      Helpers.check_bool "sync time positive" true (txn > 0);
      Helpers.check_int "phases partition sync time exactly" txn (Profile.total_phase_ns p ~tid))
    (Profile.tids p);
  let snap = List.map (Profile.run_phase p) Profile.[ Snap_sweep; Snap_publish; Snap_apply ] in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 snap in
  Helpers.check_bool "sweep phase saw time" true ((List.hd snap).ns > 0);
  Helpers.check_int "profiled fences match FAMS stats" st.Fams.Stats.fences
    (sum (fun r -> r.fences));
  Helpers.check_int "profiled flushes match FAMS stats" st.Fams.Stats.flushes
    (sum (fun r -> r.flushes))

(* ---------- the granularity x durability-domain crash matrix ---------- *)

let test_fams_cell cell () =
  let report = Engine.sweep ~points:40 ~seed cell in
  Helpers.check_sweep report;
  Helpers.check_bool "probed at least 40 instants" true (report.Engine.tested >= 40)

let matrix_cases =
  List.concat_map
    (fun model ->
      List.map
        (fun granularity ->
          let cell = Engine.fams_cell ~model ~granularity (Scenarios.fams_bank ()) in
          let scenario, model, algorithm = Engine.names cell in
          let name = Printf.sprintf "matrix %s/%s/%s" scenario model algorithm in
          Alcotest.test_case name `Slow (test_fams_cell cell))
        [ Fams.Line; Fams.Page ])
    [
      Config.optane_adr;
      Config.optane_eadr;
      Config.transient_cache;
      Config.pdram;
      Config.pdram_lite;
    ]

(* ---------- mutation tests: injected FAMS bugs must be caught ---------- *)

let test_fams_mutation ~inject ~granularity ~model () =
  let cell = Engine.fams_cell ~inject ~model ~granularity (Scenarios.fams_bank ()) in
  let report = Engine.sweep ~points:80 ~seed cell in
  let scenario, model, algorithm = Engine.names cell in
  Helpers.check_bool
    (Printf.sprintf "checker rejects %s on %s/%s/%s" (Fams.inject_name inject) scenario model
       algorithm)
    false (Engine.ok report);
  match report.Engine.failures with
  | [] -> Alcotest.fail "report not ok but carries no failure record"
  | f :: _ ->
    Helpers.check_bool "failure explains itself" true (String.length f.Engine.reason > 0);
    let spec =
      match String.split_on_char '\'' f.Engine.replay with
      | _ :: spec :: _ -> spec
      | _ -> Alcotest.fail ("unparseable replay line: " ^ f.Engine.replay)
    in
    (match String.split_on_char ':' spec with
    | [ _; _; _; _; _; inj ] ->
      Alcotest.(check string) "replay line names the injected bug" (Fams.inject_name inject) inj
    | _ -> Alcotest.fail ("replay spec lost the inject field: " ^ spec));
    (match Scenarios.replay spec with
    | Ok (replayed, replay_seed, crash_at) ->
      Helpers.check_bool "replay line names the granularity" true
        (Engine.names replayed = Engine.names cell);
      let result = Engine.probe ~seed:replay_seed ~crash_at replayed in
      Helpers.check_bool "replay reproduces the violation" true (Result.is_error result)
    | Error msg -> Alcotest.fail ("replay spec does not resolve: " ^ msg));
    (match f.Engine.telemetry_dir with
    | None -> Alcotest.fail "failure carries no telemetry dump"
    | Some dir ->
      Helpers.check_bool "telemetry dump has profile.jsonl" true
        (Sys.file_exists (Filename.concat dir "profile.jsonl"));
      (* A dlin-oracle failure carries a counterexample; a recovery
         rejection (Corrupt_image) legitimately does not. *)
      if not (String.starts_with ~prefix:"recovery rejected" f.Engine.reason) then
        Helpers.check_bool "dlin counterexample rides the telemetry dump" true
          (Sys.file_exists (Filename.concat dir "dlin.jsonl")))

let mutation_cases =
  [
    (* Without the drain fence the commit record's write-back races the
       journal's: page granularity keeps the journal large, so the WPQ
       drain window after each publish is wide. *)
    Alcotest.test_case "inject skip-publish-fence is caught (fams-page/adr)" `Slow
      (test_fams_mutation ~inject:Fams.Skip_publish_fence ~granularity:Fams.Page
         ~model:Config.optane_adr);
    (* The last journal entry's tail lines are never flushed, so a
       committed record replays stale media into the home image. *)
    Alcotest.test_case "inject torn-journal-entry is caught (fams-line/adr)" `Slow
      (test_fams_mutation ~inject:Fams.Torn_journal_entry ~granularity:Fams.Line
         ~model:Config.optane_adr);
  ]

(* ---------- crash-free runs are judged strict ---------- *)

let finished_bank ~ops =
  let scenario = Scenarios.fams_bank ~ops () in
  let sim, fams = fams_fixture ~granularity:Fams.Line ~words:scenario.Engine.f_words () in
  scenario.Engine.f_prepare fams;
  Fams.checkpoint_raw fams;
  let inst = scenario.Engine.f_fresh ~seed in
  ignore (Sim.spawn sim (fun () -> inst.Engine.f_worker sim fams));
  Sim.run sim;
  (scenario, sim, fams, inst)

(* A crash-free run lost nothing, so its oracle must demand every
   transfer.  Copying in the working area of a run one transfer shorter
   (same seed, so the same transfers) undoes the last one: rejected
   without a crash, a legal buffered cut after one. *)
let test_clean_run_is_strict () =
  let ops = 80 in
  let scenario, sim, fams, inst = finished_bank ~ops in
  let _, _, shorter, _ = finished_bank ~ops:(ops - 1) in
  for a = 0 to scenario.Engine.f_words - 1 do
    Fams.raw_write fams a (Fams.raw_read shorter a)
  done;
  match inst.Engine.f_oracle with
  | None -> Alcotest.fail "fams-bank has no oracle"
  | Some oracle ->
    Helpers.check_bool "crash-free run missing its last transfer is rejected" true
      (Result.is_error (oracle ~crashed:false sim fams));
    Helpers.check_bool "the same state is a buffered prefix after a crash" true
      (Result.is_ok (oracle ~crashed:true sim fams))

(* ---------- demand-paged sparse heap images ---------- *)

(* A 8 MiB heap with three touched words must serialize far below the
   dense size (three pages of payload), and round-trip the touched
   words while untouched pages read zero. *)
let test_sparse_image () =
  let heap_words = 1 lsl 20 in
  let cfg = Config.make ~heap_words ~track_media:true Config.optane_adr in
  let sim = Sim.create cfg in
  let m = Sim.machine sim in
  m.Machine.raw_write 0 42;
  m.Machine.raw_write (heap_words / 2) 43;
  m.Machine.raw_write (heap_words - 1) 44;
  Sim.persist_all sim;
  let path = Filename.temp_file "fams-sparse" ".img" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Sim.save_image sim path;
      let ic = open_in_bin path in
      let size = in_channel_length ic in
      close_in ic;
      Helpers.check_bool
        (Printf.sprintf "image is sparse (%d bytes for an 8 MiB heap)" size)
        true
        (size < 64 * 1024);
      let sim2 = Sim.load_image cfg path in
      let m2 = Sim.machine sim2 in
      Helpers.check_int "first word survives" 42 (m2.Machine.raw_read 0);
      Helpers.check_int "middle word survives" 43 (m2.Machine.raw_read (heap_words / 2));
      Helpers.check_int "last word survives" 44 (m2.Machine.raw_read (heap_words - 1));
      Helpers.check_int "untouched page reads zero" 0 (m2.Machine.raw_read 123456))

let suite =
  [
    Alcotest.test_case "msync roundtrip (line/adr)" `Quick
      (test_roundtrip Config.optane_adr Fams.Line);
    Alcotest.test_case "msync roundtrip (page/adr)" `Quick
      (test_roundtrip Config.optane_adr Fams.Page);
    Alcotest.test_case "msync roundtrip (line/eadr)" `Quick
      (test_roundtrip Config.optane_eadr Fams.Line);
    Alcotest.test_case "line amplification below page" `Quick test_write_amp_direction;
    Alcotest.test_case "empty sync is bookkeeping only" `Quick test_empty_sync;
    Helpers.qtest ~count:300 "dirty bitmap matches reference model" dirty_runs_gen
      dirty_matches_model;
    Alcotest.test_case "snap phases partition sync time" `Quick test_phase_exactness;
    Alcotest.test_case "sparse heap image roundtrip" `Quick test_sparse_image;
    Alcotest.test_case "crash-free run is judged strict" `Quick test_clean_run_is_strict;
  ]
  @ matrix_cases @ mutation_cases
