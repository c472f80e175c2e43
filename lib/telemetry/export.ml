(* Structured exporters: JSONL phase profiles and Chrome trace_event
   JSON (about://tracing / Perfetto "JSON trace" format).

   Determinism contract: iteration orders are fixed (threads ascending,
   phases in [Profile.all_phases] order, spans/events in ring order),
   every number is either an OCaml [%d] integer or a [%.3f] microsecond
   stamp, and no [nan]/[inf] can reach the output (empty distributions
   are skipped, not rendered). *)

module Profile = Pstm.Profile
module Histogram = Repro_util.Histogram
module Table = Repro_util.Table

type run_meta = {
  workload : string;
  model : string;
  algorithm : string;
  threads : int;
  seed : int;
  duration_ns : int;
}

let schema_version = "ptm-telemetry-v1"

(* Histogram percentiles as integers; callers only ask when non-empty. *)
let pct h p = int_of_float (Histogram.percentile h p)
let mean_int h = int_of_float (Histogram.mean h)

let hist_fields h =
  if Histogram.count h = 0 then ""
  else
    Printf.sprintf ",\"mean_ns\":%d,\"p50_ns\":%d,\"p95_ns\":%d,\"p99_ns\":%d,\"max_ns\":%d"
      (mean_int h) (pct h 50.0) (pct h 95.0) (pct h 99.0) (Histogram.max_value h)

let profile_jsonl ?(extra_thread_fields = fun _ -> []) meta (p : Profile.t) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"type\":\"run\",\"schema\":\"%s\",\"workload\":\"%s\",\"model\":\"%s\",\"algorithm\":\"%s\",\"threads\":%d,\"seed\":%d,\"duration_ns\":%d}\n"
       schema_version (Table.json_escape meta.workload) (Table.json_escape meta.model)
       (Table.json_escape meta.algorithm) meta.threads meta.seed meta.duration_ns);
  let tids = Profile.tids p in
  (* Per-thread, per-phase rows (phases with no slices are omitted). *)
  List.iter
    (fun tid ->
      List.iter
        (fun phase ->
          let count = Profile.phase_count p ~tid phase in
          if count > 0 then
            Buffer.add_string buf
              (Printf.sprintf
                 "{\"type\":\"phase\",\"tid\":%d,\"phase\":\"%s\",\"count\":%d,\"ns\":%d,\"fences\":%d,\"flushes\":%d%s}\n"
                 tid (Profile.phase_name phase) count
                 (Profile.phase_ns p ~tid phase)
                 (Profile.phase_fences p ~tid phase)
                 (Profile.phase_flushes p ~tid phase)
                 (hist_fields (Profile.phase_hist p ~tid phase))))
        Profile.all_phases)
    tids;
  (* Run-level merged rows: the per-thread distributions combined. *)
  List.iter
    (fun phase ->
      let r = Profile.run_phase p phase in
      if r.count > 0 then
        Buffer.add_string buf
          (Printf.sprintf
             "{\"type\":\"run-phase\",\"phase\":\"%s\",\"count\":%d,\"ns\":%d,\"fences\":%d,\"flushes\":%d%s}\n"
             (Profile.phase_name phase) r.count r.ns r.fences r.flushes
             (hist_fields (Profile.merged_phase_hist p phase))))
    Profile.all_phases;
  (* Per-thread summaries: the sum-to-total invariant is checkable from
     [phase_ns_total] = [txn_ns]. *)
  List.iter
    (fun tid ->
      let extra =
        String.concat ""
          (List.map (fun (k, v) -> Printf.sprintf ",\"%s\":%d" (Table.json_escape k) v)
             (extra_thread_fields tid))
      in
      Buffer.add_string buf
        (Printf.sprintf
           "{\"type\":\"thread\",\"tid\":%d,\"txn_ns\":%d,\"phase_ns_total\":%d,\"commits\":%d,\"aborts\":%d%s%s}\n"
           tid (Profile.txn_ns p ~tid)
           (Profile.total_phase_ns p ~tid)
           (Profile.commits p ~tid) (Profile.aborts p ~tid)
           (hist_fields (Profile.txn_hist p ~tid))
           extra))
    tids;
  Buffer.contents buf

(* ---------- Chrome trace_event ---------- *)

let us ns = float_of_int ns /. 1000.0

let trace_kind_name = function
  | Memsim.Trace.Load addr -> Printf.sprintf "load %d" addr
  | Memsim.Trace.Store addr -> Printf.sprintf "store %d" addr
  | Memsim.Trace.Clwb addr -> Printf.sprintf "clwb %d" addr
  | Memsim.Trace.Sfence -> "sfence"
  | Memsim.Trace.Publish n -> Printf.sprintf "publish %d" n
  | Memsim.Trace.Crash -> "crash"

let chrome_trace ?machine_trace meta (p : Profile.t) =
  let buf = Buffer.create 16384 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  let first = ref true in
  let emit ev =
    if !first then first := false else Buffer.add_char buf ',';
    Buffer.add_char buf '\n';
    Buffer.add_string buf ev
  in
  emit
    (Printf.sprintf "{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"%s %s %s\"}}"
       (Table.json_escape meta.workload) (Table.json_escape meta.model)
       (Table.json_escape meta.algorithm));
  List.iter
    (fun tid ->
      emit
        (Printf.sprintf
           "{\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":\"worker %d\"}}"
           tid tid);
      emit
        (Printf.sprintf
           "{\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"name\":\"thread_sort_index\",\"args\":{\"sort_index\":%d}}"
           tid tid))
    (Profile.tids p);
  List.iter
    (fun (s : Profile.span) ->
      let cat = if s.Profile.label = "txn" || s.Profile.label = "txn-failed" then "txn" else "phase" in
      emit
        (Printf.sprintf
           "{\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"name\":\"%s\",\"cat\":\"%s\",\"ts\":%.3f,\"dur\":%.3f}"
           s.Profile.tid s.Profile.label cat (us s.Profile.start_ns)
           (us (s.Profile.stop_ns - s.Profile.start_ns))))
    (Profile.spans p);
  (match machine_trace with
  | None -> ()
  | Some tr ->
    List.iter
      (fun (e : Memsim.Trace.event) ->
        emit
          (Printf.sprintf
             "{\"ph\":\"i\",\"pid\":0,\"tid\":%d,\"name\":\"%s\",\"cat\":\"machine\",\"s\":\"t\",\"ts\":%.3f}"
             e.Memsim.Trace.tid
             (Table.json_escape (trace_kind_name e.Memsim.Trace.kind))
             (us e.Memsim.Trace.at_ns)))
      (Memsim.Trace.tail tr));
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf
