type spec = {
  name : string;
  heap_words : int;
  setup : Pstm.Ptm.t -> unit;
  make_op : Pstm.Ptm.t -> tid:int -> rng:Repro_util.Rng.t -> (unit -> unit);
}

type result = {
  workload : string;
  model : string;
  algorithm : string;
  threads : int;
  elapsed_ns : int;
  commits : int;
  aborts : int;
  txs_per_sec : float;
  commits_per_abort : float;
  max_log_lines : int;
  latency : Repro_util.Histogram.t;  (** per-operation latency, virtual ns *)
  sim : Memsim.Sim.Stats.t;
  telemetry : Telemetry.capture option;
}

let default_seed = 0xBE5C

let run ?(duration_ns = 3_000_000) ?(flush_timing = Pstm.Ptm.At_commit) ?(coalesce = true)
    ?(seed = default_seed) ?(orec_bits = 20) ?monitor ?telemetry ?lat ?nvm_channels ~model
    ~algorithm ~threads spec =
  let cfg =
    Memsim.Config.make ?lat ?nvm_channels ~heap_words:spec.heap_words ~track_media:false model
  in
  let sim = Memsim.Sim.create cfg in
  let m = Memsim.Sim.machine sim in
  (* All of the run's randomness is rooted in [seed]: the per-thread
     workload streams split off [root_rng] below, and the PTM's backoff
     streams derive from the same seed.  No process-global generator is
     involved, so concurrent runs on other domains cannot perturb this
     one. *)
  let ptm =
    Pstm.Ptm.create ~algorithm ~flush_timing ~coalesce ~orec_bits
      ~max_threads:(max (threads + 1) 32) ~rng_seed:seed m
  in
  spec.setup ptm;
  Memsim.Sim.reset_timing sim;
  Pstm.Ptm.Stats.reset ptm;
  (* Attach telemetry after setup so the streams cover exactly the
     measured phase.  Pure observation: no virtual time is added. *)
  let capture =
    match telemetry with None -> None | Some config -> Some (Telemetry.attach ~config sim ptm)
  in
  let root_rng = Repro_util.Rng.create seed in
  let latency = Repro_util.Histogram.create () in
  for tid = 0 to threads - 1 do
    let rng = Repro_util.Rng.split root_rng in
    ignore
      (Memsim.Sim.spawn sim (fun () ->
           let op = spec.make_op ptm ~tid ~rng in
           (* [Sim.now] reads the virtual clock as an int; the machine's
              [now_ns] facade returns a float and would box two of them
              per operation. *)
           let rec loop () =
             let start = Memsim.Sim.now sim in
             if start < duration_ns then begin
               op ();
               Repro_util.Histogram.record latency (Memsim.Sim.now sim - start);
               loop ()
             end
           in
           loop ()))
  done;
  (* Optional sampling thread (spawned last, so workers keep the dense
     thread ids the workloads key home warehouses etc. off): invoked
     every [interval] of virtual time, e.g. to record persistence debt
     for the energy model. *)
  (match monitor with
  | None -> ()
  | Some (interval_ns, sample) ->
    ignore
      (Memsim.Sim.spawn sim (fun () ->
           while Memsim.Sim.now sim < duration_ns do
             m.Machine.pause interval_ns;
             sample sim
           done)));
  (* Telemetry sampler: a second monitor thread, also spawned after the
     workers (dense worker tids are preserved). *)
  (match capture with
  | Some cap when (Telemetry.config cap).Telemetry.sample_interval_ns > 0 ->
    let interval_ns = (Telemetry.config cap).Telemetry.sample_interval_ns in
    ignore
      (Memsim.Sim.spawn sim (fun () ->
           while Memsim.Sim.now sim < duration_ns do
             m.Machine.pause interval_ns;
             Telemetry.sample cap
           done))
  | Some _ | None -> ());
  Memsim.Sim.run sim;
  let elapsed_ns = max (Memsim.Sim.now sim) 1 in
  let stats = Pstm.Ptm.Stats.get ptm in
  let sim_stats = Memsim.Sim.Stats.get sim in
  (* The PTM is dead from here: the next run in this domain reuses its
     metadata space. *)
  Memsim.Sim.release sim;
  {
    workload = spec.name;
    model = model.Memsim.Config.model_name;
    algorithm = Pstm.Ptm.algorithm_name algorithm;
    threads;
    elapsed_ns;
    commits = stats.Pstm.Ptm.Stats.commits;
    aborts = stats.Pstm.Ptm.Stats.aborts;
    txs_per_sec = float_of_int stats.Pstm.Ptm.Stats.commits /. (float_of_int elapsed_ns *. 1e-9);
    commits_per_abort = Pstm.Ptm.Stats.commits_per_abort stats;
    max_log_lines = stats.Pstm.Ptm.Stats.max_log_lines;
    latency;
    sim = sim_stats;
    telemetry = capture;
  }

let throughput_row r =
  [
    r.workload;
    r.model;
    r.algorithm;
    string_of_int r.threads;
    Repro_util.Table.cell_f (r.txs_per_sec /. 1e6);
    (* cell_f renders non-finite ratios (no aborts, or no samples at
       all) as "-". *)
    Repro_util.Table.cell_f r.commits_per_abort;
  ]

let run_meta r ~seed ~duration_ns =
  {
    Telemetry.Export.workload = r.workload;
    model = r.model;
    algorithm = r.algorithm;
    threads = r.threads;
    seed;
    duration_ns;
  }
