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
  prepare : Ptm.t -> unit;
  fresh : seed:int -> instance;
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

(* ---------- one execution ---------- *)

let make_config ~nvm_channels scenario model =
  Config.make ~nvm_channels ~heap_words:scenario.heap_words ~track_media:true model

(* Format the region once, run the population phase, and persist the
   result to an image file so every crash-point probe reloads identical
   initial state instead of re-running [prepare]. *)
let prepare_image cfg scenario ~algorithm =
  let sim = Sim.create cfg in
  let ptm =
    Ptm.create ~algorithm ~coalesce:scenario.coalesce ~max_threads:scenario.threads
      ~log_words_per_thread:scenario.log_words_per_thread (Sim.machine sim)
  in
  scenario.prepare ptm;
  Sim.persist_all sim;
  let path = Filename.temp_file "crashtest" ".img" in
  Sim.save_image sim path;
  path

(* Run the dlin oracle (when the scenario has one) before the shadow
   validator, so a durable-linearizability violation — which carries a
   replayable counterexample dump — takes precedence over the coarser
   invariant check's message. *)
let check_instance inst ~crashed sim ptm =
  let first = match inst.oracle with None -> Ok () | Some o -> o ~crashed sim ptm in
  match first with
  | Error _ as e -> e
  | Ok () -> (
    match inst.validate ~crashed sim ptm with
    | Ok () -> Ok ()
    | Error reason -> Error { fail_reason = reason; counterexample = None })

(* Run the scenario's workload from the prepared image, optionally
   crashing, and validate.  Returns the verdict, the final virtual time
   and the trace (when requested).  [inject] arms a deliberate ordering
   bug in the PTM runtime (mutation tests); the prepared image is always
   populated without injection. *)
let run_from_image ?(trace_capacity = 0) ?inject cfg scenario ~algorithm ~seed ~image
    ?crash_at () =
  let sim = Sim.load_image cfg image in
  let ptm = Ptm.recover ~algorithm ~coalesce:scenario.coalesce ?inject (Sim.machine sim) in
  let tr =
    if trace_capacity > 0 then Some (Sim.enable_trace ~capacity:trace_capacity sim) else None
  in
  let inst = scenario.fresh ~seed in
  for tid = 0 to scenario.threads - 1 do
    ignore (Sim.spawn sim (fun () -> inst.worker ~tid ptm))
  done;
  Sim.run ?crash_at sim;
  let final = Sim.now sim in
  let verdict =
    if not (Sim.crashed sim) then check_instance inst ~crashed:false sim ptm
    else begin
      let sim2 = Sim.reboot sim in
      let m2 = Sim.machine sim2 in
      (* Pre-recovery integrity: a crash must never corrupt region
         metadata, only leave in-flight logs / leaked arenas behind. *)
      let pre = Pmem.Check.run (Pmem.Region.attach m2) in
      if not (Pmem.Check.is_clean pre) then
        Error
          {
            fail_reason = Format.asprintf "pre-recovery corruption:@ %a" Pmem.Check.pp pre;
            counterexample = None;
          }
      else begin
        let ptm2 = Ptm.recover ~algorithm ~coalesce:scenario.coalesce ?inject m2 in
        let post = Pmem.Check.run (Ptm.region ptm2) in
        if not (Pmem.Check.is_clean post) then
          Error
            {
              fail_reason = Format.asprintf "post-recovery corruption:@ %a" Pmem.Check.pp post;
              counterexample = None;
            }
        else check_instance inst ~crashed:true sim2 ptm2
      end
    end
  in
  (verdict, final, tr)

(* ---------- failure telemetry ---------- *)

(* On an oracle failure, the minimal failing instant is re-run with the
   phase profiler and machine trace attached, and the artifacts are
   dumped next to the replay line.  The series sampler stays off: a
   monitor thread would shift the interleaving away from the probe that
   failed, while profiler + trace are purely observational. *)
let failure_telemetry_config =
  {
    Telemetry.default_config with
    Telemetry.sample_interval_ns = 0;
    machine_trace_capacity = 1 lsl 14;
  }

let dump_failure_telemetry ?inject cfg scenario ~model ~algorithm ~seed ~image ~crash_at =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "crashtest-%s-%s-%s-s%d-t%d%s" scenario.name model.Config.model_name
         (Ptm.algorithm_name algorithm) seed crash_at
         (match inject with None -> "" | Some i -> "-" ^ Ptm.inject_name i))
  in
  let sim = Sim.load_image cfg image in
  let ptm = Ptm.recover ~algorithm ~coalesce:scenario.coalesce ?inject (Sim.machine sim) in
  let cap = Telemetry.attach ~config:failure_telemetry_config sim ptm in
  let inst = scenario.fresh ~seed in
  for tid = 0 to scenario.threads - 1 do
    ignore (Sim.spawn sim (fun () -> inst.worker ~tid ptm))
  done;
  Sim.run ~crash_at sim;
  let meta =
    {
      Telemetry.Export.workload = scenario.name;
      model = model.Config.model_name;
      algorithm = Ptm.algorithm_name algorithm;
      threads = scenario.threads;
      seed;
      duration_ns = crash_at;
    }
  in
  ignore (Telemetry.dump ~dir meta cap : string list);
  (* Profile the post-crash recovery on the rebooted machine too, so the
     dump also shows what log replay did. *)
  if Sim.crashed sim then begin
    let m2 = Sim.machine (Sim.reboot sim) in
    let profiler = Pstm.Profile.create m2 in
    ignore (Ptm.recover ~algorithm ~coalesce:scenario.coalesce ~profiler m2 : Ptm.t);
    let oc = open_out_bin (Filename.concat dir "recovery.jsonl") in
    output_string oc (Telemetry.Export.profile_jsonl meta profiler);
    close_out oc
  end;
  dir

(* ---------- exploration ---------- *)

let replay_command ?inject scenario_name model_name alg seed crash_at =
  Printf.sprintf "CRASHTEST_REPLAY='%s:%s:%s:%d:%d%s' dune build @crashtest" scenario_name
    model_name (Ptm.algorithm_name alg) seed crash_at
    (match inject with None -> "" | Some i -> ":" ^ Ptm.inject_name i)

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

let explore ?(points = 64) ?(seed = 1) ?(exhaustive = false) ?(shrink_budget = 24)
    ?(nvm_channels = 4) ?inject ~model ~algorithm scenario =
  let cfg = make_config ~nvm_channels scenario model in
  let image = prepare_image cfg scenario ~algorithm in
  Fun.protect
    ~finally:(fun () -> try Sys.remove image with Sys_error _ -> ())
    (fun () ->
      (* Crash-free reference run, traced: yields the final time and
         the interesting instants, and sanity-checks the oracle.  The
         injected ordering bugs only weaken durability, never the
         cache-visible heap, so the reference must pass even under
         injection. *)
      let verdict, final_time, tr =
        run_from_image ~trace_capacity:(1 lsl 17) ?inject cfg scenario ~algorithm ~seed
          ~image ()
      in
      (match verdict with
      | Ok () -> ()
      | Error e ->
        failwith
          (Printf.sprintf "crashtest %s/%s: reference run violates the model (harness bug): %s"
             scenario.name model.Config.model_name e.fail_reason));
      let candidates =
        let traced = match tr with Some tr -> Trace.crash_points tr | None -> [] in
        let grid = List.init 64 (fun i -> (i + 1) * final_time / 65) in
        List.sort_uniq compare (traced @ grid)
        |> List.filter (fun t -> t > 0 && t <= final_time)
      in
      let chosen =
        if exhaustive || List.length candidates <= points then candidates
        else begin
          let arr = Array.of_list candidates in
          let rng = Rng.create (seed lxor 0x5ca1ab1e) in
          Rng.shuffle rng arr;
          Array.to_list (Array.sub arr 0 points) |> List.sort compare
        end
      in
      let probe t =
        let v, _, _ =
          run_from_image ?inject cfg scenario ~algorithm ~seed ~image ~crash_at:t ()
        in
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
               let min_t = shrink ~probe ~budget:shrink_budget t in
               let fail =
                 match probe min_t with Error f -> f | Ok () -> first_fail
               in
               let telemetry_dir =
                 try
                   Some
                     (dump_failure_telemetry ?inject cfg scenario ~model ~algorithm ~seed
                        ~image ~crash_at:min_t)
                 with Sys_error _ -> None
               in
               (* The dlin counterexample rides the same telemetry path
                  as the other failure artifacts: one JSONL next to the
                  replay line. *)
               (match (telemetry_dir, fail.counterexample) with
               | Some dir, Some jsonl -> (
                 try
                   let oc = open_out_bin (Filename.concat dir "dlin.jsonl") in
                   output_string oc jsonl;
                   close_out oc
                 with Sys_error _ -> ())
               | _ -> ());
               failure :=
                 Some
                   {
                     crash_at = t;
                     min_crash_at = min_t;
                     reason = fail.fail_reason;
                     replay =
                       replay_command ?inject scenario.name model.Config.model_name algorithm
                         seed min_t;
                     telemetry_dir;
                   };
               raise Exit)
           chosen
       with Exit -> ());
      {
        scenario = scenario.name;
        model = model.Config.model_name;
        algorithm = Ptm.algorithm_name algorithm;
        seed;
        final_time;
        candidates = List.length candidates;
        tested = !tested;
        failures = (match !failure with None -> [] | Some f -> [ f ]);
      })

let run_point ?(nvm_channels = 4) ?inject ~model ~algorithm ~seed ~crash_at scenario =
  let cfg = make_config ~nvm_channels scenario model in
  let image = prepare_image cfg scenario ~algorithm in
  Fun.protect
    ~finally:(fun () -> try Sys.remove image with Sys_error _ -> ())
    (fun () ->
      let v, _, _ =
        run_from_image ?inject cfg scenario ~algorithm ~seed ~image ~crash_at ()
      in
      Result.map_error (fun f -> f.fail_reason) v)

(* ---------- crash-during-recovery ---------- *)

let heap_snapshot m words = Array.init words (fun i -> m.Machine.raw_read i)

let recovery_convergence ?(nvm_channels = 4) ?budgets ~model ~algorithm ~seed ~crash_at
    scenario =
  let cfg = make_config ~nvm_channels scenario model in
  let image = prepare_image cfg scenario ~algorithm in
  Fun.protect
    ~finally:(fun () -> try Sys.remove image with Sys_error _ -> ())
    (fun () ->
      let sim = Sim.load_image cfg image in
      let ptm = Ptm.recover ~algorithm ~coalesce:scenario.coalesce (Sim.machine sim) in
      let inst = scenario.fresh ~seed in
      for tid = 0 to scenario.threads - 1 do
        ignore (Sim.spawn sim (fun () -> inst.worker ~tid ptm))
      done;
      Sim.run ~crash_at sim;
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
        ignore (Ptm.recover ~algorithm ~coalesce:scenario.coalesce counting : Ptm.t);
        let heap_a = heap_snapshot m_a cfg.Config.heap_words in
        let total = !writes in
        let budgets =
          match budgets with
          | Some b -> List.filter (fun k -> k >= 0 && k < total) b
          | None ->
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
          (match Ptm.recover ~algorithm ~coalesce:scenario.coalesce wrapped with
          | (_ : Ptm.t) -> ()
          | exception Machine.Crashed -> ());
          let ptm_b = Ptm.recover ~algorithm ~coalesce:scenario.coalesce m_b in
          let heap_b = heap_snapshot m_b cfg.Config.heap_words in
          if heap_b <> heap_a then
            Error
              (Printf.sprintf
                 "recovery not idempotent: heap diverges after a crash %d/%d writes into \
                  recovery (crash_at=%d seed=%d)"
                 k total crash_at seed)
          else
            match check_instance inst ~crashed:true sim_b ptm_b with
            | Ok () -> Ok ()
            | Error e ->
              Error
                (Printf.sprintf "model violated after re-recovery (budget %d/%d): %s" k total
                   e.fail_reason)
        in
        List.fold_left
          (fun acc k -> match acc with Error _ -> acc | Ok () -> check_budget k)
          (Ok ()) budgets
      end)

(* ---------- FAMS: crash-testing the snapshot API ---------- *)

(* The msync subsystem rides the same explorer: prepared image, traced
   reference run, candidate instants, probe + greedy shrink, replayable
   failure line.  The differences are structural — a single mutator
   instead of a thread team, [Fams.recover] instead of [Ptm.recover],
   and the algorithm column is the granularity series ("fams-line" /
   "fams-page"). *)

type fams_instance = {
  f_worker : Sim.t -> Fams.t -> unit;  (** the single mutator *)
  f_validate : crashed:bool -> Sim.t -> Fams.t -> (unit, string) result;
  f_oracle : (crashed:bool -> Sim.t -> Fams.t -> (unit, oracle_failure) result) option;
}

type fams_scenario = {
  f_name : string;
  f_words : int;  (** working-area size *)
  f_prepare : Fams.t -> unit;  (** raw populate; the engine checkpoints after *)
  f_fresh : seed:int -> fams_instance;
}

let fams_algorithm_name granularity = "fams-" ^ Fams.granularity_name granularity

let fams_granularity_of_algorithm = function
  | "fams-line" -> Some Fams.Line
  | "fams-page" -> Some Fams.Page
  | _ -> None

let make_fams_config ~nvm_channels scenario model =
  Config.make ~nvm_channels
    ~heap_words:(Fams.required_heap_words ~words:scenario.f_words)
    ~track_media:true model

let prepare_fams_image cfg scenario ~granularity =
  let sim = Sim.create cfg in
  let fams = Fams.create ~granularity ~words:scenario.f_words sim in
  scenario.f_prepare fams;
  Fams.checkpoint_raw fams;
  Sim.persist_all sim;
  let path = Filename.temp_file "crashtest-fams" ".img" in
  Sim.save_image sim path;
  path

let check_fams_instance inst ~crashed sim fams =
  let first = match inst.f_oracle with None -> Ok () | Some o -> o ~crashed sim fams in
  match first with
  | Error _ as e -> e
  | Ok () -> (
    match inst.f_validate ~crashed sim fams with
    | Ok () -> Ok ()
    | Error reason -> Error { fail_reason = reason; counterexample = None })

let run_fams_from_image ?(trace_capacity = 0) ?inject cfg scenario ~seed ~image ?crash_at ()
    =
  let sim = Sim.load_image cfg image in
  let fams = Fams.recover ?inject sim in
  let tr =
    if trace_capacity > 0 then Some (Sim.enable_trace ~capacity:trace_capacity sim) else None
  in
  let inst = scenario.f_fresh ~seed in
  ignore (Sim.spawn sim (fun () -> inst.f_worker sim fams));
  Sim.run ?crash_at sim;
  let final = Sim.now sim in
  let verdict =
    if not (Sim.crashed sim) then check_fams_instance inst ~crashed:false sim fams
    else begin
      let sim2 = Sim.reboot sim in
      let m2 = Sim.machine sim2 in
      (* Pre-recovery integrity: region metadata must survive the crash
         even before the snapshot journal is replayed or discarded. *)
      let pre = Pmem.Check.run (Pmem.Region.attach m2) in
      if not (Pmem.Check.is_clean pre) then
        Error
          {
            fail_reason = Format.asprintf "pre-recovery corruption:@ %a" Pmem.Check.pp pre;
            counterexample = None;
          }
      else begin
        match Fams.recover ?inject sim2 with
        | exception Machine.Corrupt_image msg ->
          Error { fail_reason = "recovery rejected the image: " ^ msg; counterexample = None }
        | fams2 ->
          let post = Pmem.Check.run (Fams.region fams2) in
          if not (Pmem.Check.is_clean post) then
            Error
              {
                fail_reason =
                  Format.asprintf "post-recovery corruption:@ %a" Pmem.Check.pp post;
                counterexample = None;
              }
          else check_fams_instance inst ~crashed:true sim2 fams2
      end
    end
  in
  (verdict, final, tr)

(* Failure telemetry for a FAMS point: the phase profiler (sweep /
   publish / apply spans) plus the machine trace, dumped as
   profile.jsonl + trace.json next to the replay line.  [Telemetry
   .attach] is PTM-shaped, so the dump is assembled from the exporters
   directly. *)
let dump_fams_failure_telemetry ?inject cfg scenario ~model ~granularity ~seed ~image
    ~crash_at =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "crashtest-%s-%s-%s-s%d-t%d%s" scenario.f_name model.Config.model_name
         (fams_algorithm_name granularity) seed crash_at
         (match inject with None -> "" | Some i -> "-" ^ Fams.inject_name i))
  in
  let sim = Sim.load_image cfg image in
  let profiler =
    Pstm.Profile.create
      ~wpq_stall_probe:(fun tid -> Sim.wpq_stall_ns_of sim ~tid)
      (Sim.machine sim)
  in
  let fams = Fams.recover ?inject ~profiler sim in
  let tr = Sim.enable_trace ~capacity:(1 lsl 14) sim in
  let inst = scenario.f_fresh ~seed in
  ignore (Sim.spawn sim (fun () -> inst.f_worker sim fams));
  Sim.run ~crash_at sim;
  let meta =
    {
      Telemetry.Export.workload = scenario.f_name;
      model = model.Config.model_name;
      algorithm = fams_algorithm_name granularity;
      threads = 1;
      seed;
      duration_ns = crash_at;
    }
  in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let emit name body =
    let oc = open_out_bin (Filename.concat dir name) in
    output_string oc body;
    close_out oc
  in
  emit "profile.jsonl" (Telemetry.Export.profile_jsonl meta profiler);
  emit "trace.json" (Telemetry.Export.chrome_trace ~machine_trace:tr meta profiler);
  dir

let fams_replay_command ?inject scenario_name model_name granularity seed crash_at =
  Printf.sprintf "CRASHTEST_REPLAY='%s:%s:%s:%d:%d%s' dune build @crashtest" scenario_name
    model_name
    (fams_algorithm_name granularity)
    seed crash_at
    (match inject with None -> "" | Some i -> ":" ^ Fams.inject_name i)

let explore_fams ?(points = 64) ?(seed = 1) ?(exhaustive = false) ?(shrink_budget = 24)
    ?(nvm_channels = 4) ?inject ~model ~granularity scenario =
  let cfg = make_fams_config ~nvm_channels scenario model in
  let image = prepare_fams_image cfg scenario ~granularity in
  Fun.protect
    ~finally:(fun () -> try Sys.remove image with Sys_error _ -> ())
    (fun () ->
      let verdict, final_time, tr =
        run_fams_from_image ~trace_capacity:(1 lsl 17) ?inject cfg scenario ~seed ~image ()
      in
      (match verdict with
      | Ok () -> ()
      | Error e ->
        failwith
          (Printf.sprintf "crashtest %s/%s: reference run violates the model (harness bug): %s"
             scenario.f_name model.Config.model_name e.fail_reason));
      let candidates =
        let traced = match tr with Some tr -> Trace.crash_points tr | None -> [] in
        (* WPQ drains happen inside the mutator's quiet intervals —
           fence waits, a coalesced clwb batch paying its issue slots,
           admission stalls — and the trace records no events there.
           Those intervals are exactly where unfenced write-backs lose
           races, so span every gap wider than a microsecond with
           evenly spaced interior probes. *)
        let drained =
          match tr with
          | None -> []
          | Some tr ->
            let service = cfg.Config.lat.Config.nvm_wpq_service_ns in
            let channels = max 1 cfg.Config.nvm_channels in
            let rec walk acc run = function
              | a :: (b :: _ as rest) ->
                let run = match a.Trace.kind with Trace.Clwb _ -> run + 1 | _ -> 0 in
                let t0 = a.Trace.at_ns and t1 = b.Trace.at_ns in
                let acc =
                  if t1 - t0 > 1024 then begin
                    let even = List.init 16 (fun k -> t0 + ((k + 1) * (t1 - t0) / 17)) in
                    (* A batch of [run] clwbs drains within about
                       run/channels service slots of its issue instant;
                       the loss window sits at the head of the gap, so
                       walk the completion boundaries densely. *)
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
        in
        let grid = List.init 64 (fun i -> (i + 1) * final_time / 65) in
        let keep l =
          List.sort_uniq compare l |> List.filter (fun t -> t > 0 && t <= final_time)
        in
        (keep (traced @ drained @ grid), keep drained)
      in
      let all_candidates, drained = candidates in
      let candidates = all_candidates in
      let chosen =
        if exhaustive || List.length candidates <= points then candidates
        else begin
          (* Drain-window instants are a few hundred among tens of
             thousands of issue instants, but they are where ordering
             bugs bite: probe every one, and sample only the bulk. *)
          let rng = Rng.create (seed lxor 0x5ca1ab1e) in
          let arr = Array.of_list candidates in
          Rng.shuffle rng arr;
          let sampled = Array.to_list (Array.sub arr 0 (min points (Array.length arr))) in
          List.sort_uniq compare (drained @ sampled)
        end
      in
      let probe t =
        let v, _, _ = run_fams_from_image ?inject cfg scenario ~seed ~image ~crash_at:t () in
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
               let min_t = shrink ~probe ~budget:shrink_budget t in
               let fail = match probe min_t with Error f -> f | Ok () -> first_fail in
               let telemetry_dir =
                 try
                   Some
                     (dump_fams_failure_telemetry ?inject cfg scenario ~model ~granularity
                        ~seed ~image ~crash_at:min_t)
                 with Sys_error _ -> None
               in
               (match (telemetry_dir, fail.counterexample) with
               | Some dir, Some jsonl -> (
                 try
                   let oc = open_out_bin (Filename.concat dir "dlin.jsonl") in
                   output_string oc jsonl;
                   close_out oc
                 with Sys_error _ -> ())
               | _ -> ());
               failure :=
                 Some
                   {
                     crash_at = t;
                     min_crash_at = min_t;
                     reason = fail.fail_reason;
                     replay =
                       fams_replay_command ?inject scenario.f_name model.Config.model_name
                         granularity seed min_t;
                     telemetry_dir;
                   };
               raise Exit)
           chosen
       with Exit -> ());
      {
        scenario = scenario.f_name;
        model = model.Config.model_name;
        algorithm = fams_algorithm_name granularity;
        seed;
        final_time;
        candidates = List.length candidates;
        tested = !tested;
        failures = (match !failure with None -> [] | Some f -> [ f ]);
      })

let run_fams_point ?(nvm_channels = 4) ?inject ~model ~granularity ~seed ~crash_at scenario =
  let cfg = make_fams_config ~nvm_channels scenario model in
  let image = prepare_fams_image cfg scenario ~granularity in
  Fun.protect
    ~finally:(fun () -> try Sys.remove image with Sys_error _ -> ())
    (fun () ->
      let v, _, _ = run_fams_from_image ?inject cfg scenario ~seed ~image ~crash_at () in
      Result.map_error (fun f -> f.fail_reason) v)

(* ---------- replay parsing ---------- *)

let parse_replay spec =
  let parse scen model alg seed crash_at inject =
    let alg =
      match String.lowercase_ascii alg with
      | "redo" -> Some Ptm.Redo
      | "undo" -> Some Ptm.Undo
      | "htm" -> Some Ptm.Htm
      | "mod" -> Some Ptm.Mod
      | _ -> None
    in
    match (alg, int_of_string_opt seed, int_of_string_opt crash_at, inject) with
    | Some alg, Some seed, Some crash_at, None ->
      Some (scen, model, alg, seed, crash_at, None)
    | Some alg, Some seed, Some crash_at, Some name -> (
      (* A present-but-unknown inject name must not silently replay the
         un-mutated runtime. *)
      match Ptm.inject_of_name name with
      | Some i -> Some (scen, model, alg, seed, crash_at, Some i)
      | None -> None)
    | _ -> None
  in
  match String.split_on_char ':' (String.trim spec) with
  | [ scen; model; alg; seed; crash_at ] -> parse scen model alg seed crash_at None
  | [ scen; model; alg; seed; crash_at; inject ] ->
    parse scen model alg seed crash_at (Some inject)
  | _ -> None

(* FAMS replay lines use the granularity series as the algorithm column
   and FAMS inject names; everything else matches [parse_replay]. *)
let parse_fams_replay spec =
  let parse scen model alg seed crash_at inject =
    match
      (fams_granularity_of_algorithm alg, int_of_string_opt seed, int_of_string_opt crash_at)
    with
    | Some g, Some seed, Some crash_at -> (
      match inject with
      | None -> Some (scen, model, g, seed, crash_at, None)
      | Some name -> (
        match Fams.inject_of_name name with
        | Some i -> Some (scen, model, g, seed, crash_at, Some i)
        | None -> None))
    | _ -> None
  in
  match String.split_on_char ':' (String.trim spec) with
  | [ scen; model; alg; seed; crash_at ] -> parse scen model alg seed crash_at None
  | [ scen; model; alg; seed; crash_at; inject ] ->
    parse scen model alg seed crash_at (Some inject)
  | _ -> None
