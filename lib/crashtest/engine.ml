module Config = Memsim.Config
module Sim = Memsim.Sim
module Trace = Memsim.Trace
module Ptm = Pstm.Ptm
module Rng = Repro_util.Rng

(* A failed check, with an optional replayable counterexample dump
   (JSONL, written as dlin.jsonl next to the other telemetry). *)
type oracle_failure = { fail_reason : string; counterexample : string option }

type instance = {
  worker : tid:int -> Ptm.t -> unit;
  validate : crashed:bool -> Sim.t -> Ptm.t -> (unit, string) result;
  oracle : (crashed:bool -> Sim.t -> Ptm.t -> (unit, oracle_failure) result) option;
}

type scenario = {
  name : string;
  threads : int;
  heap_words : int;
  log_words_per_thread : int;
  coalesce : bool;
  algorithms : Config.model -> Ptm.algorithm list;
  prepare : Ptm.t -> unit;
  fresh : seed:int -> instance;
}

type fams_instance = {
  f_worker : Sim.t -> Fams.t -> unit;
  f_validate : crashed:bool -> Sim.t -> Fams.t -> (unit, string) result;
  f_oracle : (crashed:bool -> Sim.t -> Fams.t -> (unit, oracle_failure) result) option;
}

type fams_scenario = {
  f_name : string;
  f_words : int;
  f_prepare : Fams.t -> unit;
  f_fresh : seed:int -> fams_instance;
}

type failure = {
  crash_at : int;
  min_crash_at : int;
  reason : string;
  replay : string;
  telemetry_dir : string option;
}

type report = {
  scenario : string;
  model : string;
  algorithm : string;
  seed : int;
  final_time : int;
  candidates : int;
  tested : int;
  failures : failure list;
}

let ok r = r.failures = []

let pp_report ppf r =
  Format.fprintf ppf "crashtest %s/%s/%s seed=%d: %d/%d points (T=%dns)" r.scenario r.model
    r.algorithm r.seed r.tested r.candidates r.final_time;
  match r.failures with
  | [] -> Format.fprintf ppf " all pass"
  | fs ->
    List.iter
      (fun f ->
        Format.fprintf ppf "@.  FAIL at %dns (min %dns): %s@.  replay: %s" f.crash_at
          f.min_crash_at f.reason f.replay;
        match f.telemetry_dir with
        | Some dir -> Format.fprintf ppf "@.  telemetry: %s" dir
        | None -> ())
      fs

(* ---------- one matrix cell, whatever the runtime ---------- *)

(* Judges one recovered (or cleanly finished) machine. *)
type 'rt judge = crashed:bool -> Sim.t -> 'rt -> (unit, oracle_failure) result

(* Everything the explorer needs from a matrix cell, over the runtime
   ['rt] that recovery attaches: [Ptm.t] for the PTM scenarios,
   [Fams.t] for the msync ones.  The two sweeps differ only in these
   fields. *)
type 'rt target = {
  scenario_name : string;
  algorithm_name : string;
  inject_name : string option;
  threads : int;
  cfg : Config.t;
  populate : Sim.t -> unit;  (** format a fresh machine and run the population phase *)
  recover : Sim.t -> 'rt;  (** attach the runtime to a loaded or rebooted machine *)
  region : 'rt -> Pmem.Region.t;
  start : seed:int -> Sim.t -> 'rt -> 'rt judge;
      (** spawn a fresh instance's workers; returns the instance's judge *)
  dump :
    seed:int -> image:string -> crash_at:int -> dir:string -> Telemetry.Export.run_meta -> unit;
      (** failure telemetry of a re-run crashing at [crash_at], into [dir] *)
  drain_windows : Trace.t -> int list;  (** instants always probed, on top of the sample *)
}

type cell = Cell : 'rt target -> cell

let model_name tg = tg.cfg.Config.model.Config.model_name
let names (Cell tg) = (tg.scenario_name, model_name tg, tg.algorithm_name)

let plain_failure reason = { fail_reason = reason; counterexample = None }

(* The dlin oracle judges; [validate] holds only what dlin cannot
   express, and runs after it. *)
let judge oracle validate ~crashed sim rt =
  let verdict = match oracle with None -> Ok () | Some o -> o ~crashed sim rt in
  Result.bind verdict (fun () -> Result.map_error plain_failure (validate ~crashed sim rt))

let write_file dir name body =
  let oc = open_out_bin (Filename.concat dir name) in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc body)

(* Format the region once, run the population phase, and persist the
   result to an image file so every crash-point probe reloads identical
   initial state instead of re-running the population.  Every machine
   the engine creates is released once judged, so probes share one
   metadata buffer instead of allocating 8 MB each. *)
let with_image (tg : _ target) f =
  let sim = Sim.create tg.cfg in
  tg.populate sim;
  Sim.persist_all sim;
  let image = Filename.temp_file "crashtest" ".img" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove image with Sys_error _ -> ())
    (fun () ->
      Sim.save_image sim image;
      Sim.release sim;
      f image)

let region_clean stage region =
  let rep = Pmem.Check.run region in
  if Pmem.Check.is_clean rep then Ok ()
  else
    Error (plain_failure (Format.asprintf "%s-recovery corruption:@ %a" stage Pmem.Check.pp rep))

(* Run the workload from the prepared image, optionally crashing, and
   judge.  Returns the verdict, the final virtual time and the trace
   (when requested). *)
let run_from_image ?(trace_capacity = 0) (tg : _ target) ~seed ~image ?crash_at () =
  let sim = Sim.load_image tg.cfg image in
  let rt = tg.recover sim in
  let tr =
    if trace_capacity > 0 then Some (Sim.enable_trace ~capacity:trace_capacity sim) else None
  in
  let judge = tg.start ~seed sim rt in
  Sim.run ?crash_at sim;
  let final = Sim.now sim in
  let verdict =
    if not (Sim.crashed sim) then judge ~crashed:false sim rt
    else begin
      let sim2 = Sim.reboot sim in
      (* Pre-recovery integrity: a crash must never corrupt region
         metadata, only leave in-flight logs / leaked arenas behind. *)
      Fun.protect ~finally:(fun () -> Sim.release sim2) (fun () ->
          Result.bind (region_clean "pre" (Pmem.Region.attach (Sim.machine sim2))) (fun () ->
              match tg.recover sim2 with
              | exception Machine.Corrupt_image msg ->
                Error (plain_failure ("recovery rejected the image: " ^ msg))
              | rt2 ->
                Result.bind (region_clean "post" (tg.region rt2)) (fun () ->
                    judge ~crashed:true sim2 rt2)))
    end
  in
  (* [reboot] already released a crashed [sim]; releasing twice is a no-op. *)
  Sim.release sim;
  (verdict, final, tr)

let replay_command (tg : _ target) seed crash_at =
  Printf.sprintf "CRASHTEST_REPLAY='%s:%s:%s:%d:%d%s' dune build @crashtest" tg.scenario_name
    (model_name tg) tg.algorithm_name seed crash_at
    (match tg.inject_name with None -> "" | Some i -> ":" ^ i)

(* On an oracle failure, the minimal failing instant is re-run with
   telemetry attached and the artifacts are dumped next to the replay
   line; the dlin counterexample, when there is one, rides along as
   dlin.jsonl. *)
let dump_failure_telemetry (tg : _ target) ~seed ~image ~crash_at (fail : oracle_failure) =
  match
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "crashtest-%s-%s-%s-s%d-t%d%s" tg.scenario_name
           (model_name tg) tg.algorithm_name seed crash_at
           (match tg.inject_name with None -> "" | Some i -> "-" ^ i))
    in
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
    tg.dump ~seed ~image ~crash_at ~dir
      {
        Telemetry.Export.workload = tg.scenario_name;
        model = model_name tg;
        algorithm = tg.algorithm_name;
        threads = tg.threads;
        seed;
        duration_ns = crash_at;
      };
    dir
  with
  | exception Sys_error _ -> None
  | dir ->
    Option.iter
      (fun jsonl -> try write_file dir "dlin.jsonl" jsonl with Sys_error _ -> ())
      fail.counterexample;
    Some dir

(* Greedy shrink: repeatedly probe a few instants below the current
   minimum; stop when none of them fails or the budget runs out.
   Failure is not monotone in time, so this finds a small — not
   necessarily the global-minimum — failing instant. *)
let shrink ~probe ~budget t0 =
  let best = ref t0 in
  let spent = ref 0 in
  let improved = ref true in
  while !improved && !spent < budget do
    improved := false;
    let cur = !best in
    let tries =
      List.sort_uniq compare [ cur / 4; cur / 2; 3 * cur / 4; cur - 1 ]
      |> List.filter (fun c -> c > 0 && c < cur)
    in
    try
      List.iter
        (fun c ->
          if !spent >= budget then raise Exit;
          incr spent;
          match probe c with
          | Error _ ->
            best := c;
            improved := true;
            raise Exit
          | Ok () -> ())
        tries
    with Exit -> ()
  done;
  !best

let sweep ?(points = 64) ?(seed = 1) ?(exhaustive = false) (Cell tg) =
  with_image tg (fun image ->
      (* Crash-free reference run, traced: yields the final time and
         the interesting instants, and sanity-checks the oracle.  The
         injected bugs only weaken durability, never the cache-visible
         state, so the reference must pass even under injection. *)
      let verdict, final_time, tr =
        run_from_image ~trace_capacity:(1 lsl 17) tg ~seed ~image ()
      in
      (match verdict with
      | Ok () -> ()
      | Error e ->
        failwith
          (Printf.sprintf "crashtest %s/%s: reference run violates the model (harness bug): %s"
             tg.scenario_name (model_name tg) e.fail_reason));
      let keep l =
        List.sort_uniq compare l |> List.filter (fun t -> t > 0 && t <= final_time)
      in
      let traced, drained =
        match tr with
        | None -> ([], [])
        | Some tr -> (Trace.crash_points tr, keep (tg.drain_windows tr))
      in
      let grid = List.init 64 (fun i -> (i + 1) * final_time / 65) in
      let candidates = keep (traced @ drained @ grid) in
      let chosen =
        if exhaustive || List.length candidates <= points then candidates
        else begin
          let rng = Rng.create (seed lxor 0x5ca1ab1e) in
          let arr = Array.of_list candidates in
          Rng.shuffle rng arr;
          List.sort_uniq compare (drained @ Array.to_list (Array.sub arr 0 points))
        end
      in
      let probe t =
        let v, _, _ = run_from_image tg ~seed ~image ~crash_at:t () in
        v
      in
      let tested = ref 0 in
      let failure = ref None in
      (try
         List.iter
           (fun t ->
             incr tested;
             match probe t with
             | Ok () -> ()
             | Error first_fail ->
               let min_t = shrink ~probe ~budget:24 t in
               let fail = match probe min_t with Error f -> f | Ok () -> first_fail in
               failure :=
                 Some
                   {
                     crash_at = t;
                     min_crash_at = min_t;
                     reason = fail.fail_reason;
                     replay = replay_command tg seed min_t;
                     telemetry_dir =
                       dump_failure_telemetry tg ~seed ~image ~crash_at:min_t fail;
                   };
               raise Exit)
           chosen
       with Exit -> ());
      {
        scenario = tg.scenario_name;
        model = model_name tg;
        algorithm = tg.algorithm_name;
        seed;
        final_time;
        candidates = List.length candidates;
        tested = !tested;
        failures = Option.to_list !failure;
      })

let probe ~seed ~crash_at (Cell tg) =
  with_image tg (fun image ->
      let v, _, _ = run_from_image tg ~seed ~image ~crash_at () in
      Result.map_error (fun f -> f.fail_reason) v)

(* ---------- PTM cells ---------- *)

(* The series sampler stays off in the failure dump: a monitor thread
   would shift the interleaving away from the probe that failed, while
   profiler + trace are purely observational. *)
let failure_telemetry_config =
  {
    Telemetry.default_config with
    Telemetry.sample_interval_ns = 0;
    machine_trace_capacity = 1 lsl 14;
  }

(* Interleaved channels let WPQ completions reorder relative to issue
   order: the hazard window missing fences open. *)
let nvm_channels = 4

let ptm_target ?inject ~model ~algorithm (scenario : scenario) =
  let cfg =
    Config.make ~nvm_channels ~heap_words:scenario.heap_words ~track_media:true model
  in
  let recover sim =
    Ptm.recover ~algorithm ~coalesce:scenario.coalesce ?inject (Sim.machine sim)
  in
  let start ~seed sim ptm =
    let inst = scenario.fresh ~seed in
    for tid = 0 to scenario.threads - 1 do
      ignore (Sim.spawn sim (fun () -> inst.worker ~tid ptm))
    done;
    judge inst.oracle inst.validate
  in
  let dump ~seed ~image ~crash_at ~dir meta =
    let sim = Sim.load_image cfg image in
    let ptm = recover sim in
    let cap = Telemetry.attach ~config:failure_telemetry_config sim ptm in
    let _judge = start ~seed sim ptm in
    Sim.run ~crash_at sim;
    ignore (Telemetry.dump ~dir meta cap : string list);
    (* Profile the post-crash recovery on the rebooted machine too, so
       the dump also shows what log replay did. *)
    if not (Sim.crashed sim) then Sim.release sim
    else begin
      let sim2 = Sim.reboot sim in
      let m2 = Sim.machine sim2 in
      let profiler = Pstm.Profile.create m2 in
      ignore (Ptm.recover ~algorithm ~coalesce:scenario.coalesce ~profiler m2 : Ptm.t);
      write_file dir "recovery.jsonl" (Telemetry.Export.profile_jsonl meta profiler);
      Sim.release sim2
    end
  in
  {
    scenario_name = scenario.name;
    algorithm_name = Ptm.algorithm_name algorithm;
    inject_name = Option.map Ptm.inject_name inject;
    threads = scenario.threads;
    cfg;
    populate =
      (fun sim ->
        scenario.prepare
          (Ptm.create ~algorithm ~coalesce:scenario.coalesce ~max_threads:scenario.threads
             ~log_words_per_thread:scenario.log_words_per_thread (Sim.machine sim)));
    recover;
    region = Ptm.region;
    start;
    dump;
    drain_windows = (fun _ -> []);
  }

let ptm_cell ?inject ~model ~algorithm scenario =
  Cell (ptm_target ?inject ~model ~algorithm scenario)

let explore ?points ?seed ?exhaustive ?inject ~model ~algorithm scenario =
  sweep ?points ?seed ?exhaustive (ptm_cell ?inject ~model ~algorithm scenario)

(* ---------- crash-during-recovery ---------- *)

let heap_snapshot m words = Array.init words (fun i -> m.Machine.raw_read i)

let recovery_convergence ~model ~algorithm ~seed ~crash_at scenario =
  let tg = ptm_target ~model ~algorithm scenario in
  let recover m = Ptm.recover ~algorithm ~coalesce:scenario.coalesce m in
  with_image tg (fun image ->
      let sim = Sim.load_image tg.cfg image in
      let judge = tg.start ~seed sim (tg.recover sim) in
      Sim.run ~crash_at sim;
      (* Only the rebooted machines below are judged. *)
      Sim.release sim;
      if not (Sim.crashed sim) then Ok ()
      else begin
        (* Reference: uninterrupted recovery — count its persistent
           writes and keep the resulting heap image. *)
        let sim_a = Sim.reboot sim in
        let m_a = Sim.machine sim_a in
        let writes = ref 0 in
        let counting =
          {
            m_a with
            Machine.raw_write =
              (fun addr v ->
                incr writes;
                m_a.Machine.raw_write addr v);
          }
        in
        ignore (recover counting : Ptm.t);
        let heap_a = heap_snapshot m_a tg.cfg.Config.heap_words in
        Sim.release sim_a;
        let total = !writes in
        let budgets =
          if total = 0 then []
          else begin
            let rng = Rng.create (seed lxor 0x0c0ffee) in
            List.init (min 8 total) (fun _ -> Rng.int rng total) |> List.sort_uniq compare
          end
        in
        let check_budget k =
          (* A fresh reboot of the same crash, recovery interrupted
             after [k] persistent writes, then recovered for real. *)
          let sim_b = Sim.reboot sim in
          let m_b = Sim.machine sim_b in
          let left = ref k in
          let wrapped =
            {
              m_b with
              Machine.raw_write =
                (fun addr v ->
                  if !left = 0 then raise Machine.Crashed;
                  decr left;
                  m_b.Machine.raw_write addr v);
            }
          in
          (match recover wrapped with
          | (_ : Ptm.t) -> ()
          | exception Machine.Crashed -> ());
          let ptm_b = recover m_b in
          let heap_b = heap_snapshot m_b tg.cfg.Config.heap_words in
          let verdict =
            if heap_b <> heap_a then
              Error
                (Printf.sprintf
                   "recovery not idempotent: heap diverges after a crash %d/%d writes into \
                    recovery (crash_at=%d seed=%d)"
                   k total crash_at seed)
            else
              match judge ~crashed:true sim_b ptm_b with
              | Ok () -> Ok ()
              | Error e ->
                Error
                  (Printf.sprintf "model violated after re-recovery (budget %d/%d): %s" k total
                     e.fail_reason)
          in
          Sim.release sim_b;
          verdict
        in
        List.fold_left
          (fun acc k -> match acc with Error _ -> acc | Ok () -> check_budget k)
          (Ok ()) budgets
      end)

(* ---------- FAMS cells ---------- *)

(* WPQ drains happen inside the mutator's quiet intervals — fence
   waits, a coalesced clwb batch paying its issue slots, admission
   stalls — and the trace records no events there.  Those intervals are
   exactly where unfenced write-backs lose races, so span every gap
   wider than a microsecond with evenly spaced interior probes. *)
let drain_windows cfg tr =
  let service = cfg.Config.lat.Config.nvm_wpq_service_ns in
  let channels = max 1 cfg.Config.nvm_channels in
  let rec walk acc run = function
    | a :: (b :: _ as rest) ->
      let run = match a.Trace.kind with Trace.Clwb _ -> run + 1 | _ -> 0 in
      let t0 = a.Trace.at_ns and t1 = b.Trace.at_ns in
      let acc =
        if t1 - t0 > 1024 then begin
          let even = List.init 16 (fun k -> t0 + ((k + 1) * (t1 - t0) / 17)) in
          (* A batch of [run] clwbs drains within about run/channels
             service slots of its issue instant; the loss window sits at
             the head of the gap, so walk the completion boundaries
             densely. *)
          let head =
            if run = 0 then []
            else
              let slots = min (((run + channels - 1) / channels) + channels) 64 in
              List.init slots (fun j -> t0 + ((j + 1) * service))
          in
          head @ even @ acc
        end
        else acc
      in
      walk acc run rest
    | _ -> acc
  in
  walk [] 0 (Trace.tail tr)

let fams_target ?inject ~model ~granularity scenario =
  let cfg =
    Config.make ~nvm_channels
      ~heap_words:(Fams.required_heap_words ~words:scenario.f_words)
      ~track_media:true model
  in
  let start ~seed sim fams =
    let inst = scenario.f_fresh ~seed in
    ignore (Sim.spawn sim (fun () -> inst.f_worker sim fams));
    judge inst.f_oracle inst.f_validate
  in
  (* The phase profiler (sweep / publish / apply spans) plus the machine
     trace, as profile.jsonl + trace.json.  [Telemetry.attach] is
     PTM-shaped, so the dump is assembled from the exporters directly. *)
  let dump ~seed ~image ~crash_at ~dir meta =
    let sim = Sim.load_image cfg image in
    let profiler =
      Pstm.Profile.create
        ~wpq_stall_probe:(fun tid -> Sim.wpq_stall_ns_of sim ~tid)
        (Sim.machine sim)
    in
    let fams = Fams.recover ?inject ~profiler sim in
    let tr = Sim.enable_trace ~capacity:(1 lsl 14) sim in
    let _judge = start ~seed sim fams in
    Sim.run ~crash_at sim;
    write_file dir "profile.jsonl" (Telemetry.Export.profile_jsonl meta profiler);
    write_file dir "trace.json" (Telemetry.Export.chrome_trace ~machine_trace:tr meta profiler);
    Sim.release sim
  in
  {
    scenario_name = scenario.f_name;
    algorithm_name = "fams-" ^ Fams.granularity_name granularity;
    inject_name = Option.map Fams.inject_name inject;
    threads = 1;
    cfg;
    populate =
      (fun sim ->
        let fams = Fams.create ~granularity ~words:scenario.f_words sim in
        scenario.f_prepare fams;
        Fams.checkpoint_raw fams);
    recover = (fun sim -> Fams.recover ?inject sim);
    region = Fams.region;
    start;
    dump;
    drain_windows = drain_windows cfg;
  }

let fams_cell ?inject ~model ~granularity scenario =
  Cell (fams_target ?inject ~model ~granularity scenario)
