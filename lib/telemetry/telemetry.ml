(* Umbrella: attach a capture (profiler + series + optional machine
   trace) to a (sim, ptm) pair, sample it from a monitor thread, and
   dump the three standard artifacts. *)

module Series = Series
module Export = Export
module Trace = Trace
module Registry = Registry
module Sim = Memsim.Sim
module Profile = Pstm.Profile
module Table = Repro_util.Table

type config = {
  sample_interval_ns : int;
  span_capacity : int;
  series_capacity : int;
  machine_trace_capacity : int;
}

let default_config =
  {
    sample_interval_ns = 50_000;
    span_capacity = 1 lsl 16;
    series_capacity = 4096;
    machine_trace_capacity = 8192;
  }

type capture = {
  config : config;
  sim : Sim.t;
  ptm : Pstm.Ptm.t;
  profile : Pstm.Profile.t;
  series : Series.t;
  machine_trace : Memsim.Trace.t option;
}

let attach ?(config = default_config) sim ptm =
  let profile =
    Pstm.Profile.create ~span_capacity:config.span_capacity
      ~wpq_stall_probe:(fun tid -> Sim.wpq_stall_ns_of sim ~tid)
      (Pstm.Ptm.machine ptm)
  in
  Pstm.Ptm.set_profiler ptm (Some profile);
  let machine_trace =
    if config.machine_trace_capacity > 0 then
      Some (Sim.enable_trace ~capacity:config.machine_trace_capacity sim)
    else None
  in
  { config; sim; ptm; profile; series = Series.create ~capacity:config.series_capacity (); machine_trace }

let sample cap = Series.record cap.series cap.sim cap.ptm

let config cap = cap.config
let profile cap = cap.profile
let series cap = cap.series

(* Machine-attributed per-thread stall counters, appended to the
   JSONL thread summaries so profile-level fence-wait can be checked
   against the simulator's own accounting. *)
let machine_thread_fields cap tid =
  [
    ("machine_fence_wait_ns", Sim.fence_wait_ns_of cap.sim ~tid);
    ("machine_wpq_stall_ns", Sim.wpq_stall_ns_of cap.sim ~tid);
  ]

let profile_jsonl meta cap =
  Export.profile_jsonl ~extra_thread_fields:(machine_thread_fields cap) meta cap.profile

let series_csv cap = Series.to_csv cap.series

let phase_table ~title cap =
  let p = cap.profile in
  let total_txn_ns = Profile.run_sum p Profile.txn_ns in
  let table =
    Table.create ~title ~header:[ "phase"; "count"; "total ns"; "share %"; "fences"; "flushes" ]
  in
  List.iter
    (fun phase ->
      let r = Profile.run_phase p phase in
      if r.count > 0 then
        Table.add_row table
          [
            Profile.phase_name phase;
            string_of_int r.count;
            string_of_int r.ns;
            Table.cell_f (100.0 *. float_of_int r.ns /. float_of_int (max 1 total_txn_ns));
            string_of_int r.fences;
            string_of_int r.flushes;
          ])
    Profile.all_phases;
  table

let chrome_trace meta cap = Export.chrome_trace ?machine_trace:cap.machine_trace meta cap.profile

let files meta cap =
  [
    ("profile.jsonl", profile_jsonl meta cap);
    ("series.csv", series_csv cap);
    ("trace.json", chrome_trace meta cap);
  ]

let write_file path content =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc content)

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let dump ~dir meta cap =
  mkdir_p dir;
  List.map
    (fun (name, content) ->
      let path = Filename.concat dir name in
      write_file path content;
      path)
    (files meta cap)
