(* Extensions beyond the paper's evaluation: HTM mode, Memory Mode,
   and the reserve-power model. *)

open Pstm
module Sim = Memsim.Sim
module Config = Memsim.Config

let fixture ?(model = Config.optane_eadr) ?(algorithm = Ptm.Htm) () =
  Helpers.ptm_fixture ~model ~algorithm ()

(* ---------- HTM ---------- *)

let test_htm_rejected_under_adr () =
  let _sim, m = Helpers.sim_machine ~model:Config.optane_adr () in
  Alcotest.check_raises "ADR + HTM is invalid"
    (Invalid_argument "Ptm: the HTM algorithm requires an eADR-class durability domain")
    (fun () -> ignore (Ptm.create ~algorithm:Ptm.Htm m))

let test_htm_basic_semantics () =
  let _, _, ptm = fixture () in
  let addr =
    Ptm.atomic ptm (fun tx ->
        let a = Ptm.alloc tx 4 in
        Ptm.write tx a 7;
        Ptm.write tx (a + 1) 8;
        Helpers.check_int "read own write" 7 (Ptm.read tx a);
        a)
  in
  Ptm.atomic ptm (fun tx ->
      Helpers.check_int "committed" 7 (Ptm.read tx addr);
      Helpers.check_int "second word" 8 (Ptm.read tx (addr + 1)))

let test_htm_parallel_counter () =
  let sim, _, ptm = fixture () in
  let addr =
    Ptm.atomic ptm (fun tx ->
        let a = Ptm.alloc tx 1 in
        Ptm.write tx a 0;
        a)
  in
  Helpers.run_workers sim 4 (fun _ ->
      for _ = 1 to 100 do
        Ptm.atomic ptm (fun tx -> Ptm.write tx addr (Ptm.read tx addr + 1))
      done);
  Ptm.atomic ptm (fun tx -> Helpers.check_int "no lost updates" 400 (Ptm.read tx addr))

let test_htm_capacity_falls_back () =
  (* A transaction larger than the HTM write capacity must still
     commit, through the STM fallback path. *)
  let _, _, ptm = fixture () in
  let base = Ptm.atomic ptm (fun tx -> Ptm.alloc tx 512) in
  Ptm.Stats.reset ptm;
  Ptm.atomic ptm (fun tx ->
      (* 512 words over 64+ lines > the 128-line cap is not reachable
         with one block; touch two blocks' worth of lines. *)
      for i = 0 to 511 do
        Ptm.write tx (base + i) i
      done);
  let s = Ptm.Stats.get ptm in
  Helpers.check_int "committed exactly once" 1 s.Ptm.Stats.commits;
  Ptm.atomic ptm (fun tx -> Helpers.check_int "data landed" 99 (Ptm.read tx (base + 99)))

let test_htm_crash_atomicity () =
  (* Uncommitted HTM state must vanish on a crash; committed state must
     survive (eADR publishes into the durability domain atomically). *)
  let sim, _, ptm = fixture () in
  let words = 4 in
  let base =
    Ptm.atomic ptm (fun tx ->
        let a = Ptm.alloc tx words in
        for i = 0 to words - 1 do
          Ptm.write tx (a + i) 0
        done;
        a)
  in
  Ptm.root_set ptm 0 base;
  Sim.persist_all sim;
  Helpers.run_workers sim 3 ~crash_at:150_000 (fun _ ->
      for _ = 1 to 10_000 do
        Ptm.atomic ptm (fun tx ->
            for i = 0 to words - 1 do
              Ptm.write tx (base + i) (Ptm.read tx (base + i) + 1)
            done)
      done);
  let sim' = Sim.reboot sim in
  let m' = Sim.machine sim' in
  ignore (Ptm.recover ~algorithm:Ptm.Htm m');
  let v0 = m'.Machine.raw_read base in
  for i = 1 to words - 1 do
    Helpers.check_int "HTM atomicity across crash" v0 (m'.Machine.raw_read (base + i))
  done

let test_htm_no_flushes_issued () =
  let sim, _, ptm = fixture () in
  let addr = Ptm.atomic ptm (fun tx -> Ptm.alloc tx 1) in
  Memsim.Sim.reset_timing sim;
  ignore
    (Sim.spawn sim (fun () ->
         for _ = 1 to 50 do
           Ptm.atomic ptm (fun tx -> Ptm.write tx addr (Ptm.read tx addr + 1))
         done));
  Sim.run sim;
  let s = Sim.Stats.get sim in
  Helpers.check_int "no clwb under HTM" 0 s.Sim.Stats.clwbs;
  Helpers.check_int "no sfence under HTM" 0 s.Sim.Stats.sfences

(* ---------- Memory Mode ---------- *)

let test_memory_mode_loses_everything () =
  let sim, m = Helpers.sim_machine ~model:Config.memory_mode () in
  ignore
    (Sim.spawn sim (fun () ->
         m.Machine.store 100 7;
         for _ = 1 to 50 do
           m.Machine.pause 1000
         done));
  Sim.run ~crash_at:10_000 sim;
  let sim' = Sim.reboot sim in
  Helpers.check_int "memory mode resets on reboot" 0 ((Sim.machine sim').Machine.raw_read 100)

let test_memory_mode_fast_like_pdram () =
  let time model =
    let sim, m = Helpers.sim_machine ~model () in
    ignore
      (Sim.spawn sim (fun () ->
           for i = 0 to 999 do
             m.Machine.store (i * 8) i
           done));
    Sim.run sim;
    Sim.now sim
  in
  Helpers.check_int "identical runtime behaviour" (time Config.pdram) (time Config.memory_mode)

(* ---------- transiently persistent cache ---------- *)

let test_transient_cache_flags_and_survival () =
  let sim, m = Helpers.sim_machine ~model:Config.transient_cache () in
  Helpers.check_bool "no flushes needed" false m.Machine.needs_flush;
  Helpers.check_bool "no fences needed" false m.Machine.needs_fence;
  ignore
    (Sim.spawn sim (fun () ->
         m.Machine.store 100 7;
         for _ = 1 to 50 do
           m.Machine.pause 1000
         done));
  Sim.run ~crash_at:10_000 sim;
  let sim' = Sim.reboot sim in
  Helpers.check_int "unflushed store rides out the failure" 7
    ((Sim.machine sim').Machine.raw_read 100)

let test_transient_cache_flush_free_ptm () =
  (* needs_flush = false: the PTM must skip clwb/sfence entirely, as
     under eADR — the domains differ only in reserve-energy accounting. *)
  let sim, _, ptm =
    Helpers.ptm_fixture ~model:Config.transient_cache ~algorithm:Ptm.Redo ()
  in
  let addr = Ptm.atomic ptm (fun tx -> Ptm.alloc tx 1) in
  Memsim.Sim.reset_timing sim;
  ignore
    (Sim.spawn sim (fun () ->
         for _ = 1 to 50 do
           Ptm.atomic ptm (fun tx -> Ptm.write tx addr (Ptm.read tx addr + 1))
         done));
  Sim.run sim;
  let s = Sim.Stats.get sim in
  Helpers.check_int "no clwb under transient cache" 0 s.Sim.Stats.clwbs;
  Helpers.check_int "no sfence under transient cache" 0 s.Sim.Stats.sfences

(* The debt of a machine with no PTM attached: no armed log. *)
let machine_debt sim = Sim.Debt.sample sim ~armed_log_lines:(fun () -> 0)

let test_transient_energy_between_adr_and_eadr () =
  (* Same dirty working set under each persistence mode: ADR's reserve
     covers only the WPQ, the transiently persistent cache pays mere
     retention per dirty line, eADR pays a full read-out + NVM write. *)
  let energy model =
    let sim, m = Helpers.sim_machine ~model () in
    ignore
      (Sim.spawn sim (fun () ->
           for i = 0 to 63 do
             m.Machine.store (i * 8) 1
           done));
    Sim.run sim;
    Sim.Debt.reserve_energy_nj model (machine_debt sim)
  in
  let adr = energy Config.optane_adr in
  let transient = energy Config.transient_cache in
  let eadr = energy Config.optane_eadr in
  Helpers.check_bool
    (Printf.sprintf "adr(%.0f) < transient(%.0f)" adr transient)
    true (adr < transient);
  Helpers.check_bool
    (Printf.sprintf "transient(%.0f) < eadr(%.0f)" transient eadr)
    true (transient < eadr)

(* ---------- HTM-commit domain ---------- *)

let test_htm_commit_publish_survives_crash () =
  (* The controller hardens each published write set at retirement, so
     a committed HTM transaction is durable with no explicit flush —
     even though the domain is otherwise ADR-class. *)
  let sim, _, ptm = Helpers.ptm_fixture ~model:Config.htm_commit ~algorithm:Ptm.Htm () in
  let addr =
    Ptm.atomic ptm (fun tx ->
        let a = Ptm.alloc tx 1 in
        Ptm.write tx a 41;
        a)
  in
  Ptm.root_set ptm 0 addr;
  Ptm.atomic ptm (fun tx -> Ptm.write tx addr 42);
  (* No persist_all: the publish alone must have reached the media. *)
  let sim' = Sim.reboot sim in
  let m' = Sim.machine sim' in
  ignore (Ptm.recover ~algorithm:Ptm.Htm m');
  Helpers.check_int "published commit survives reboot" 42 (m'.Machine.raw_read addr)

let test_htm_commit_plain_stores_still_volatile () =
  (* durable_publish covers only published write sets; a raw store that
     never reaches the WPQ is lost, exactly as under plain ADR. *)
  let sim, m = Helpers.sim_machine ~model:Config.htm_commit () in
  ignore
    (Sim.spawn sim (fun () ->
         m.Machine.store 100 7;
         for _ = 1 to 50 do
           m.Machine.pause 1000
         done));
  Sim.run ~crash_at:10_000 sim;
  let sim' = Sim.reboot sim in
  Helpers.check_int "unpublished store lost" 0 ((Sim.machine sim').Machine.raw_read 100)

(* ---------- reserve-power model ---------- *)

let test_debt_sampling () =
  let sim, m = Helpers.sim_machine ~model:Config.optane_eadr () in
  ignore
    (Sim.spawn sim (fun () ->
         for i = 0 to 63 do
           m.Machine.store (i * 8) 1
         done));
  Sim.run sim;
  let d = machine_debt sim in
  Helpers.check_bool "dirty lines observed" true (d.Sim.Debt.dirty_l3_lines > 0);
  let e = Sim.Debt.reserve_energy_nj Config.optane_eadr d in
  Helpers.check_bool "positive reserve energy" true (e > 0.0)

let test_debt_adr_counts_only_wpq () =
  let sim, m = Helpers.sim_machine ~model:Config.optane_adr () in
  ignore
    (Sim.spawn sim (fun () ->
         for i = 0 to 63 do
           m.Machine.store (i * 8) 1
         done
         (* dirty lines, nothing flushed: ADR would lose them, so they
            are not part of the reserve-power requirement *)));
  Sim.run sim;
  let d = machine_debt sim in
  let e = Sim.Debt.reserve_energy_nj Config.optane_adr d in
  Helpers.check_bool "ADR reserve covers only the WPQ" true
    (e <= float_of_int d.Sim.Debt.wpq_lines *. 100.0)

(* A reboot carries no log ranges over, and a region attached twice
   (the crash engine's pre-recovery check, then [Ptm.recover]) counts
   one armed log line once: the count reads the PTM's logs, not the
   marks. *)
let test_debt_rebooted_log_counted_once () =
  let sim, _, _ = Helpers.ptm_fixture ~model:Config.pdram_lite () in
  Sim.persist_all sim;
  let armed_after recover =
    let sim' = Sim.reboot sim in
    let m' = Sim.machine sim' in
    let ptm' = recover m' in
    m'.Machine.raw_write (Pmem.Region.log_base (Ptm.region ptm') ~tid:0) Pmem.Log.redo_committed;
    (Sim.Debt.sample sim' ~armed_log_lines:(fun () -> Ptm.armed_log_lines ptm'))
      .Sim.Debt.armed_log_lines
  in
  Helpers.check_int "one armed log line after recovery" 1 (armed_after (fun m -> Ptm.recover m));
  Helpers.check_int "one armed log line after attach, then recovery" 1
    (armed_after (fun m ->
         ignore (Pmem.Region.attach m : Pmem.Region.t);
         Ptm.recover m))

(* The greatest armed-log count a monitor sees while thread 0 stays
   idle and thread 1 commits one 10-write redo transaction. *)
let peak_armed_lines model =
  let sim, m, ptm = Helpers.ptm_fixture ~model ~algorithm:Ptm.Redo () in
  let addrs = Ptm.atomic ptm (fun tx -> Array.init 10 (fun _ -> Ptm.alloc tx 1)) in
  let committed = ref false and peak = ref 0 in
  ignore (Sim.spawn sim (fun () -> ()));
  ignore
    (Sim.spawn sim (fun () ->
         Ptm.atomic ptm (fun tx -> Array.iter (fun a -> Ptm.write tx a 1) addrs);
         committed := true));
  ignore
    (Sim.spawn sim (fun () ->
         while not !committed do
           let d = Sim.Debt.sample sim ~armed_log_lines:(fun () -> Ptm.armed_log_lines ptm) in
           peak := max !peak d.Sim.Debt.armed_log_lines;
           m.Machine.pause 5
         done));
  Sim.run sim;
  !peak

(* Every thread's armed log counts, not thread 0's alone: mid-commit,
   thread 1's log (status word, 10 entries and the sentinel, words
   0..22) spans three lines.  Only PDRAM-Lite keeps the log in DRAM;
   under eADR the same commit arms nothing the reserve must cover. *)
let test_debt_counts_every_thread_log () =
  Helpers.check_int "pdram-lite: thread 1's three log lines" 3
    (peak_armed_lines Config.pdram_lite);
  Helpers.check_int "eadr: no armed log lines" 0 (peak_armed_lines Config.optane_eadr)

(* The log range decides placement only.  Under PDRAM-Lite a cold load
   inside the marked range costs DRAM latency and one outside costs
   NVM latency, and marking a second range replaces the first. *)
let test_log_range_placement () =
  let sim, m = Helpers.sim_machine ~model:Config.pdram_lite () in
  let line = Machine.Layout.words_per_line in
  let costs = ref [] in
  let cost addr =
    let t0 = m.Machine.now_ns () in
    ignore (m.Machine.load addr : int);
    costs := int_of_float (m.Machine.now_ns () -. t0) :: !costs
  in
  ignore
    (Sim.spawn sim (fun () ->
         m.Machine.mark_log_range 0 (4 * line);
         cost line;
         cost (8 * line);
         m.Machine.mark_log_range (8 * line) (16 * line);
         cost (2 * line);
         cost (9 * line)));
  Sim.run sim;
  let lat = Config.default_latency in
  let dram = lat.Config.dram_load_ns and nvm = lat.Config.nvm_load_ns in
  Alcotest.(check (list int))
    "first range: DRAM inside, NVM outside; second range: NVM in the first, DRAM inside"
    [ dram; nvm; nvm; dram ] (List.rev !costs)

(* A telemetry run of TATP redo whose series samples the persistence
   debt every 5 us, as the reserve-energy experiment does. *)
let reserve_run ?(duration_ns = 300_000) model =
  Workloads.Driver.run_cell
    {
      (Workloads.Driver.cell ~duration_ns ~model ~algorithm:Ptm.Redo ~threads:4
         Workloads.Tatp.spec)
      with
      telemetry =
        Some
          { Telemetry.default_config with sample_interval_ns = 5_000; machine_trace_capacity = 0 };
    }

let test_energy_ordering_across_domains () =
  (* The paper's power argument: ADR < eADR <= PDRAM reserve needs. *)
  let max_energy model = snd (Workloads.Experiments.reserve_peak (reserve_run model)) in
  let adr = max_energy Config.optane_adr in
  let eadr = max_energy Config.optane_eadr in
  let pdram = max_energy Config.pdram in
  Helpers.check_bool
    (Printf.sprintf "adr(%.0f) < eadr(%.0f)" adr eadr)
    true (adr < eadr);
  Helpers.check_bool
    (Printf.sprintf "eadr(%.0f) < pdram(%.0f)" eadr pdram)
    true (eadr < pdram)

let test_reserve_peak_first_maximum () =
  let r = reserve_run Config.optane_eadr in
  let debt (s : Telemetry.Series.sample) = s.debt in
  let samples =
    match r.Workloads.Driver.telemetry with
    | Some cap -> Telemetry.Series.samples (Telemetry.series cap)
    | None -> Alcotest.fail "telemetry run without a capture"
  in
  let energies =
    List.map (fun s -> Sim.Debt.reserve_energy_nj Config.optane_eadr (debt s)) samples
  in
  let d, e = Workloads.Experiments.reserve_peak r in
  let top = List.fold_left max 0.0 energies in
  Helpers.check_bool "peak energy is positive" true (e > 0.0);
  Helpers.check_bool (Printf.sprintf "peak %.0f = greatest sample %.0f" e top) true (e = top);
  let first = List.find (fun (_, x) -> x = top) (List.combine samples energies) in
  Helpers.check_bool "peak debt is the first greatest sample's" true (d = debt (fst first));
  Alcotest.check_raises "a run without telemetry has no series"
    (Invalid_argument "Experiments.reserve_peak: run without telemetry")
    (fun () ->
      ignore
        (Workloads.Experiments.reserve_peak
           (Workloads.Driver.run_cell
              (Workloads.Driver.cell ~duration_ns:20_000 ~model:Config.optane_eadr
                 ~algorithm:Ptm.Redo ~threads:1 Workloads.Tatp.spec))))

let suite =
  [
    Alcotest.test_case "htm: rejected under ADR" `Quick test_htm_rejected_under_adr;
    Alcotest.test_case "htm: semantics" `Quick test_htm_basic_semantics;
    Alcotest.test_case "htm: parallel counter" `Quick test_htm_parallel_counter;
    Alcotest.test_case "htm: capacity fallback" `Quick test_htm_capacity_falls_back;
    Alcotest.test_case "htm: crash atomicity" `Quick test_htm_crash_atomicity;
    Alcotest.test_case "htm: flush-free" `Quick test_htm_no_flushes_issued;
    Alcotest.test_case "memory mode: volatile" `Quick test_memory_mode_loses_everything;
    Alcotest.test_case "memory mode: PDRAM speed" `Quick test_memory_mode_fast_like_pdram;
    Alcotest.test_case "transient cache: survival without flushes" `Quick
      test_transient_cache_flags_and_survival;
    Alcotest.test_case "transient cache: flush-free PTM" `Quick
      test_transient_cache_flush_free_ptm;
    Alcotest.test_case "transient cache: energy between ADR and eADR" `Quick
      test_transient_energy_between_adr_and_eadr;
    Alcotest.test_case "htm-commit: publish is durable" `Quick
      test_htm_commit_publish_survives_crash;
    Alcotest.test_case "htm-commit: plain stores stay volatile" `Quick
      test_htm_commit_plain_stores_still_volatile;
    Alcotest.test_case "energy: debt sampling" `Quick test_debt_sampling;
    Alcotest.test_case "energy: ADR = WPQ only" `Quick test_debt_adr_counts_only_wpq;
    Alcotest.test_case "energy: domain ordering" `Quick test_energy_ordering_across_domains;
    Alcotest.test_case "energy: reserve peak is the first greatest sample" `Quick
      test_reserve_peak_first_maximum;
    Alcotest.test_case "energy: a rebooted log line counts once" `Quick
      test_debt_rebooted_log_counted_once;
    Alcotest.test_case "energy: every thread's armed log counts" `Quick
      test_debt_counts_every_thread_log;
    Alcotest.test_case "energy: one log range per machine" `Quick test_log_range_placement;
  ]
