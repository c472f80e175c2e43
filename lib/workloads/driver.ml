type spec = {
  name : string;
  heap_words : int;
  setup : Pstm.Ptm.t -> unit;
  make_op : Pstm.Ptm.t -> tid:int -> rng:Repro_util.Rng.t -> (unit -> unit);
}

type cell = {
  spec : spec;
  config : Memsim.Config.t;
  algorithm : Pstm.Ptm.algorithm;
  threads : int;
  duration_ns : int;
  seed : int;
  flush_timing : Pstm.Ptm.flush_timing;
  coalesce : bool;
  orec_bits : int;
  telemetry : Telemetry.config option;
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

let cell ~duration_ns ~model ~algorithm ~threads spec =
  {
    spec;
    config = Memsim.Config.make ~heap_words:spec.heap_words ~track_media:false model;
    algorithm;
    threads;
    duration_ns;
    seed = default_seed;
    flush_timing = Pstm.Ptm.At_commit;
    coalesce = true;
    orec_bits = 20;
    telemetry = None;
  }

let max_threads (c : cell) = max (c.threads + 1) 32

type setup_key =
  string * Memsim.Config.t * Pstm.Ptm.algorithm * int * Pstm.Ptm.flush_timing * bool * int * int

let setup_key (c : cell) =
  ( c.spec.name, c.config, c.algorithm, c.seed, c.flush_timing, c.coalesce, c.orec_bits,
    max_threads c )

let populate (c : cell) f =
  Memsim.Sim.with_ (Memsim.Sim.create c.config) @@ fun sim ->
  (* All of the run's randomness is rooted in [seed]: the per-thread
     workload streams split off [root_rng] in [run_cell], and the PTM's
     backoff streams derive from the same seed.  No process-global
     generator is involved, so concurrent runs on other domains cannot
     perturb this one. *)
  let ptm =
    Pstm.Ptm.create ~algorithm:c.algorithm ~flush_timing:c.flush_timing ~coalesce:c.coalesce
      ~orec_bits:c.orec_bits ~max_threads:(max_threads c) ~rng_seed:c.seed (Memsim.Sim.machine sim)
  in
  c.spec.setup ptm;
  f sim ptm

let measure (c : cell) sim ptm =
  let duration_ns = c.duration_ns in
  Memsim.Sim.reset_timing sim;
  Pstm.Ptm.Stats.reset ptm;
  (* Attach telemetry after setup so the streams cover exactly the
     measured phase.  Pure observation: no virtual time is added. *)
  let capture = Option.map (fun config -> Telemetry.attach ~config sim ptm) c.telemetry in
  let root_rng = Repro_util.Rng.create c.seed in
  let latency = Repro_util.Histogram.create () in
  for tid = 0 to c.threads - 1 do
    let rng = Repro_util.Rng.split root_rng in
    ignore
      (Memsim.Sim.spawn sim (fun () ->
           let op = c.spec.make_op ptm ~tid ~rng in
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
  (* Telemetry sampler, spawned after the workers so that they keep
     the dense thread ids the workloads key home warehouses etc. off. *)
  (match capture with
  | Some cap when (Telemetry.config cap).Telemetry.sample_interval_ns > 0 ->
    let interval_ns = (Telemetry.config cap).Telemetry.sample_interval_ns in
    let m = Pstm.Ptm.machine ptm in
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
  {
    workload = c.spec.name;
    model = c.config.Memsim.Config.model.Memsim.Config.model_name;
    algorithm = Pstm.Ptm.algorithm_name c.algorithm;
    threads = c.threads;
    elapsed_ns;
    commits = stats.Pstm.Ptm.Stats.commits;
    aborts = stats.Pstm.Ptm.Stats.aborts;
    txs_per_sec = float_of_int stats.Pstm.Ptm.Stats.commits /. (float_of_int elapsed_ns *. 1e-9);
    commits_per_abort = Pstm.Ptm.Stats.commits_per_abort stats;
    max_log_lines = stats.Pstm.Ptm.Stats.max_log_lines;
    latency;
    sim = Memsim.Sim.Stats.get sim;
    telemetry = capture;
  }

let run_cell c = populate c (measure c)

let run ~duration_ns ~seed ~model ~algorithm ~threads spec =
  run_cell { (cell ~duration_ns ~model ~algorithm ~threads spec) with seed }

let run_meta (c : cell) (r : result) =
  {
    Telemetry.Export.workload = r.workload;
    model = r.model;
    algorithm = r.algorithm;
    threads = r.threads;
    seed = c.seed;
    duration_ns = c.duration_ns;
  }
