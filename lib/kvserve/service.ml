module Config = Memsim.Config
module Sim = Memsim.Sim
module Ptm = Pstm.Ptm
module Profile = Pstm.Profile
module Pool = Parallel.Pool
module Histogram = Repro_util.Histogram
module Trace = Telemetry.Trace
module Registry = Telemetry.Registry

type config = {
  shards : int;
  model : Config.model;
  heap_words_per_shard : int;
  buckets_per_shard : int;
  log_words_per_thread : int;
  max_batch : int;
  debt_line_limit : int;
  restart_gap_ns : int;
  prepopulate_items : int;
  value_bytes : int;
  profile : bool;
  trace : bool;
  seed : int;
}

let default_config model =
  {
    shards = 4;
    model;
    heap_words_per_shard = 1 lsl 18;
    buckets_per_shard = 1024;
    log_words_per_thread = 8192;
    max_batch = 8;
    debt_line_limit = 24;
    restart_gap_ns = 50_000;
    prepopulate_items = 2048;
    value_bytes = 64;
    profile = false;
    trace = false;
    seed = 0xCAFE;
  }

type opcode = Op_get | Op_set | Op_delete | Op_incr

let opcode_name = function
  | Op_get -> "get"
  | Op_set -> "set"
  | Op_delete -> "delete"
  | Op_incr -> "incr"

(* ---------- frontend: parse, route, enqueue ---------- *)

(* One sub-operation on one shard.  A multi-key [get] splits into one
   sub per key (its shards answer independently; the reply merges in
   key order).  Writes carry a per-shard [seq] — the batch-marker
   currency. *)
type sop =
  | Sget of string
  | Sset of { key : string; flags : int; data : string }
  | Sdel of string
  | Sincr of string * int

type sub = { seq : int; id : int; part : int; arrival : int; op : sop; strace : int }

let is_write = function Sget _ -> false | Sset _ | Sdel _ | Sincr _ -> true

(* Parsed-request bookkeeping on the assembly side. *)
type payload =
  | P_error of string
  | P_get of { keys : string array; hits : (int * string) option array }
  | P_write of { mutable reply : string }
  | P_stats of { mutable reply : string }

type item = {
  conn : int;
  arrival : int;
  opcode : opcode option;  (* None for protocol errors and [stats] *)
  payload : payload;
  trace : int;  (* trace id; -1 when tracing is off or untraced *)
  mutable unanswered : int;
  mutable done_at : int;
}

type frontend = { items : item array; queues : sub list array (* per shard, arrival order *) }

let frontend cfg (fleet : Client.t) =
  let parsers = Array.init fleet.Client.conns (fun _ -> Protocol.parser_create ()) in
  let items = ref [] and n_items = ref 0 in
  let queues = Array.make cfg.shards [] in
  let wseq = Array.make cfg.shards 0 in
  let push shard sub = queues.(shard) <- sub :: queues.(shard) in
  (* Trace-context allocation: the [o]-th parsed item on a connection
     takes the generator-assigned id when the fleet carries one, and a
     synthesized (conn, ordinal) id otherwise.  Ordinals advance on
     protocol errors too, so a torn frame never shifts later ids. *)
  let ord = Array.make fleet.Client.conns 0 in
  let next_trace conn =
    let o = ord.(conn) in
    ord.(conn) <- o + 1;
    if not cfg.trace then -1
    else if
      conn < Array.length fleet.Client.trace_ids
      && o < Array.length fleet.Client.trace_ids.(conn)
    then fleet.Client.trace_ids.(conn).(o)
    else (conn lsl 20) + o
  in
  let route ~arrival ~conn (request : Protocol.request) =
    let id = !n_items in
    let trace = next_trace conn in
    let item, subs =
      match request with
      | Protocol.Get keys ->
        let keys = Array.of_list keys in
        let payload = P_get { keys; hits = Array.make (Array.length keys) None } in
        ( { conn; arrival; opcode = Some Op_get; payload; trace;
            unanswered = Array.length keys; done_at = -1 },
          Array.to_list
            (Array.mapi
               (fun part key -> (Router.shard_of_key ~shards:cfg.shards key, Sget key, part))
               keys) )
      | Protocol.Set { key; flags; data } ->
        ( { conn; arrival; opcode = Some Op_set; payload = P_write { reply = "" }; trace;
            unanswered = 1; done_at = -1 },
          [ (Router.shard_of_key ~shards:cfg.shards key, Sset { key; flags; data }, 0) ] )
      | Protocol.Delete key ->
        ( { conn; arrival; opcode = Some Op_delete; payload = P_write { reply = "" }; trace;
            unanswered = 1; done_at = -1 },
          [ (Router.shard_of_key ~shards:cfg.shards key, Sdel key, 0) ] )
      | Protocol.Incr { key; delta } ->
        ( { conn; arrival; opcode = Some Op_incr; payload = P_write { reply = "" }; trace;
            unanswered = 1; done_at = -1 },
          [ (Router.shard_of_key ~shards:cfg.shards key, Sincr (key, delta), 0) ] )
      | Protocol.Stats ->
        (* Answered at the frontend from the end-of-run registry
           snapshot: no shard work, completes at its arrival instant. *)
        ( { conn; arrival; opcode = None; payload = P_stats { reply = "" }; trace;
            unanswered = 0; done_at = arrival },
          [] )
    in
    items := item :: !items;
    incr n_items;
    List.iter
      (fun (shard, op, part) ->
        let seq =
          if is_write op then begin
            wseq.(shard) <- wseq.(shard) + 1;
            wseq.(shard)
          end
          else 0
        in
        push shard { seq; id; part; arrival; op; strace = trace })
      subs
  in
  List.iter
    (fun { Client.arrival_ns; conn; bytes } ->
      Protocol.feed parsers.(conn) bytes;
      List.iter
        (function
          | Protocol.Request r -> route ~arrival:arrival_ns ~conn r
          | Protocol.Protocol_error reply ->
            ignore (next_trace conn);
            items :=
              { conn; arrival = arrival_ns; opcode = None; payload = P_error reply;
                trace = -1; unanswered = 0; done_at = arrival_ns }
              :: !items;
            incr n_items)
        (Protocol.drain parsers.(conn)))
    fleet.Client.chunks;
  {
    items = Array.of_list (List.rev !items);
    queues = Array.map List.rev queues;
  }

(* ---------- per-shard execution ---------- *)

type out =
  | O_hit of int * string
  | O_miss
  | O_stored
  | O_deleted
  | O_not_found
  | O_number of int
  | O_not_numeric

type event = { e_id : int; e_part : int; e_done : int; e_out : out }

type recovery = {
  r_shard : int;
  r_logs_scanned : int;
  r_words_scanned : int;
  r_entries_replayed : int;
  r_entries_rolled_back : int;
  r_durable_marker : int;
  r_replayed_ops : int;
  r_modeled_ns : int;
  r_wall_ns : int;
}

type shard_stats = {
  s_shard : int;
  s_ops : int;
  s_commits : int;
  s_aborts : int;
  s_batches : int;
  s_max_batch : int;
  s_throttled : int;
  s_elapsed_ns : int;
  s_ptm : Ptm.Stats.t;
  s_sim : (string * int) list;
}

type cell = {
  c_events : event list;  (* execution order *)
  c_batch_sizes : int list;  (* reverse commit order; order-insensitive use *)
  c_stats : shard_stats;
  c_recovery : recovery option;
  c_capture : (int * Telemetry.capture) option;
  c_trace : Trace.t option;
}

(* Simulated recovery time, modeled from what the recovery pass did:
   every scanned log word is a load from the log's medium (DRAM under
   PDRAM-Lite — the domain's whole point), every replayed or
   rolled-back entry a write-back to the data medium (plus a clwb when
   the domain requires flushes), closed by one fence. *)
let modeled_recovery_ns (cfg : Config.t) ~needs_flush (rr : Ptm.Recovery_report.t) =
  let lat = cfg.Config.lat in
  let log_load_ns =
    if cfg.Config.model.Config.log_in_dram then lat.Config.dram_load_ns
    else
      match cfg.Config.model.Config.data_media with
      | Config.Dram -> lat.Config.dram_load_ns
      | Config.Nvm -> lat.Config.nvm_load_ns
  in
  let writeback_ns =
    (match cfg.Config.model.Config.data_media with
    | Config.Dram -> lat.Config.dram_wpq_service_ns
    | Config.Nvm -> lat.Config.nvm_wpq_service_ns)
    + if needs_flush then lat.Config.clwb_ns else 0
  in
  (rr.Ptm.Recovery_report.words_scanned * log_load_ns)
  + ((rr.Ptm.Recovery_report.entries_replayed + rr.Ptm.Recovery_report.entries_rolled_back)
    * writeback_ns)
  + lat.Config.sfence_ns

let apply_write tx store = function
  | Sset { key; flags; data } ->
    Store.set tx store ~key ~flags data;
    O_stored
  | Sdel key -> if Store.delete tx store key then O_deleted else O_not_found
  | Sincr (key, delta) -> (
    match Store.incr tx store key delta with
    | Store.New_value v -> O_number v
    | Store.Missing -> O_not_found
    | Store.Not_numeric -> O_not_numeric)
  | Sget _ -> assert false

(* The executor: walk [positions] (indices into [subs], arrival order)
   inside a simulated thread, batching adjacent arrived writes into one
   transaction and running gets as individual read-only transactions.
   [offset] converts this sim's clock to service-global time.

   [garrival] is a sub's arrival on the service-global clock (equal to
   [arrival] in the primary pass; during replay [arrival] is rebased to
   the restarted sim's clock while spans keep global instants).  When
   [tracing] is on, each executed sub gets a wait span (queue-wait /
   throttle-wait for a batch leader, batch-wait for followers) and an
   execution span (commit / read) whose children are the PTM profile
   slices bracketed by the transaction — pure observation, recorded
   from clock values the executor already read. *)
let executor cfg ~sim ~m ~ptm ~store ~subs ~positions ~arrival ~garrival ~offset ~events
    ~answered ~batches ~batch_sizes ~max_batch_seen ~throttled ~tracing ~shard () =
  let n = Array.length positions in
  let now () = int_of_float (m.Machine.now_ns ()) in
  let record p done_t out =
    let s = subs.(p) in
    events := { e_id = s.id; e_part = s.part; e_done = done_t + offset; e_out = out } :: !events;
    answered.(p) <- true
  in
  let mark () =
    match tracing with Some (_, prof) -> Profile.spans_recorded prof | None -> 0
  in
  let slices_since m0 =
    match tracing with
    | None -> []
    | Some (_, prof) ->
      List.filter
        (fun (s : Profile.span) -> s.Profile.label <> "txn" && s.Profile.label <> "txn-failed")
        (Profile.spans_since prof m0)
  in
  let trace_exec ~p ~wait_kind ~exec_kind ~pickup ~done_t ~slices =
    match tracing with
    | None -> ()
    | Some (tr, _) ->
      let strace = subs.(p).strace in
      let pickup_g = pickup + offset and done_g = done_t + offset in
      ignore
        (Trace.span tr ~trace:strace ~parent:Trace.root_parent ~kind:wait_kind ~tid:shard
           ~start_ns:(garrival p) ~stop_ns:pickup_g);
      let exec =
        Trace.span tr ~trace:strace ~parent:Trace.root_parent ~kind:exec_kind ~tid:shard
          ~start_ns:pickup_g ~stop_ns:done_g
      in
      List.iter
        (fun (sl : Profile.span) ->
          ignore
            (Trace.span tr ~trace:strace ~parent:exec ~kind:sl.Profile.label ~tid:shard
               ~start_ns:(sl.Profile.start_ns + offset)
               ~stop_ns:(sl.Profile.stop_ns + offset)))
        slices
  in
  let i = ref 0 in
  while !i < n do
    let p = positions.(!i) in
    let t = now () in
    let arr = arrival p in
    if arr > t then m.Machine.pause (arr - t)
    else if is_write subs.(p).op then begin
      (* Debt-driven admission: past the line limit, writes are let in
         one at a time until the WPQ has drained. *)
      let clamped = Sim.Debt.pending_lines sim >= cfg.debt_line_limit in
      let cap = if clamped then 1 else cfg.max_batch in
      let j = ref !i in
      while
        !j < n && !j - !i < cap
        && (let q = positions.(!j) in
            is_write subs.(q).op && arrival q <= t)
      do
        incr j
      done;
      let batch = Array.sub positions !i (!j - !i) in
      let outs = ref [] in
      let m0 = mark () in
      Ptm.atomic ptm (fun tx ->
          outs := [];
          Array.iter (fun bp -> outs := apply_write tx store subs.(bp).op :: !outs) batch;
          Store.set_batch_marker tx store subs.(batch.(Array.length batch - 1)).seq);
      let done_t = now () in
      let slices = slices_since m0 in
      Array.iteri
        (fun bi bp ->
          let wait_kind =
            if bi > 0 then "batch-wait"
            else if clamped then "throttle-wait"
            else "queue-wait"
          in
          trace_exec ~p:bp ~wait_kind ~exec_kind:"commit" ~pickup:t ~done_t ~slices)
        batch;
      List.iteri
        (fun k out -> record batch.(Array.length batch - 1 - k) done_t out)
        !outs;
      incr batches;
      batch_sizes := Array.length batch :: !batch_sizes;
      max_batch_seen := max !max_batch_seen (Array.length batch);
      if clamped then incr throttled;
      i := !j
    end
    else begin
      let key = match subs.(p).op with Sget k -> k | _ -> assert false in
      let m0 = mark () in
      let out =
        Ptm.atomic ptm (fun tx ->
            match Store.get tx store key with
            | Some (flags, data) -> O_hit (flags, data)
            | None -> O_miss)
      in
      let done_t = now () in
      trace_exec ~p ~wait_kind:"queue-wait" ~exec_kind:"read" ~pickup:t ~done_t
        ~slices:(slices_since m0);
      record p done_t out;
      incr i
    end
  done

(* Reply reconstruction for writes whose commit survived the crash but
   whose response was lost with the pre-crash process: answer from the
   recovered state (a real server's client would have seen a dropped
   connection; the simulated fleet gets a deterministic answer). *)
let reconstruct ptm store op =
  Ptm.atomic ptm (fun tx ->
      match op with
      | Sset _ -> O_stored
      | Sdel key -> if Store.get tx store key = None then O_deleted else O_not_found
      | Sincr (key, _) -> (
        match Store.get tx store key with
        | None -> O_not_found
        | Some (_, s) -> (
          match int_of_string_opt s with Some v -> O_number v | None -> O_not_numeric))
      | Sget _ -> assert false)

let populate cfg ptm store ~shard =
  let batch = ref [] in
  let flush_batch () =
    if !batch <> [] then begin
      let ops = !batch in
      batch := [];
      Ptm.atomic ptm (fun tx ->
          List.iter (fun (key, data) -> Store.set tx store ~key ~flags:0 data) ops)
    end
  in
  let add key data =
    batch := (key, data) :: !batch;
    if List.length !batch >= 32 then flush_batch ()
  in
  for rank = 0 to cfg.prepopulate_items - 1 do
    let key = Client.key_of rank in
    if Router.shard_of_key ~shards:cfg.shards key = shard then
      add key (Client.value_of ~rank ~version:0 ~value_bytes:cfg.value_bytes)
  done;
  for c = 0 to Client.counters - 1 do
    let key = Client.counter_of c in
    if Router.shard_of_key ~shards:cfg.shards key = shard then add key "0"
  done;
  flush_batch ()

let run_shard cfg ~crash_at ~shard (queue : sub list) =
  let subs = Array.of_list queue in
  let n = Array.length subs in
  let track = crash_at <> None in
  let sim_cfg =
    Config.make ~heap_words:cfg.heap_words_per_shard ~track_media:track cfg.model
  in
  let sim = Sim.create sim_cfg in
  let m = Sim.machine sim in
  let ptm =
    Ptm.create ~max_threads:1 ~log_words_per_thread:cfg.log_words_per_thread
      ~rng_seed:(cfg.seed + shard) m
  in
  let store = Store.create ptm ~buckets:cfg.buckets_per_shard in
  populate cfg ptm store ~shard;
  Sim.reset_timing sim;
  Ptm.Stats.reset ptm;
  if track then Sim.persist_all sim;
  let capture =
    if cfg.profile then
      let tcfg = { Telemetry.default_config with Telemetry.sample_interval_ns = 0 } in
      Some (shard, Telemetry.attach ~config:tcfg sim ptm)
    else None
  in
  (* Request tracing rides on a phase profiler (observation-only, so
     enabling it perturbs no virtual time).  When [profile] already
     attached one via the capture, reuse it — the PTM has a single
     profiler slot. *)
  let tracing =
    if not cfg.trace then None
    else
      let prof =
        match capture with
        | Some (_, cap) -> Telemetry.profile cap
        | None ->
          let p =
            Profile.create ~wpq_stall_probe:(fun tid -> Sim.wpq_stall_ns_of sim ~tid) m
          in
          Ptm.set_profiler ptm (Some p);
          p
      in
      Some (Trace.create (), prof)
  in
  let events = ref [] in
  let answered = Array.make n false in
  let batches = ref 0 in
  let batch_sizes = ref [] in
  let max_batch_seen = ref 0 in
  let throttled = ref 0 in
  let all_positions = Array.init n (fun i -> i) in
  if n > 0 then
    ignore
      (Sim.spawn sim
         (executor cfg ~sim ~m ~ptm ~store ~subs ~positions:all_positions
            ~arrival:(fun p -> subs.(p).arrival)
            ~garrival:(fun p -> subs.(p).arrival)
            ~offset:0 ~events ~answered ~batches ~batch_sizes ~max_batch_seen ~throttled
            ~tracing ~shard));
  (match crash_at with None -> Sim.run sim | Some at -> Sim.run ~crash_at:at sim);
  let crashed = Sim.crashed sim in
  let elapsed, recovery, st2, sim2_fields =
    if not crashed then (Sim.now sim, None, None, None)
    else begin
      (* Restart: reboot the machine image, recover the PTM, find the
         durable prefix, reconstruct lost replies, replay the rest. *)
      let sim2 = Sim.reboot sim in
      let m2 = Sim.machine sim2 in
      (* The restarted PTM needs its own profiler (fresh machine), but
         spans keep landing in the same per-shard trace store. *)
      let tracing2 =
        match tracing with
        | None -> None
        | Some (tr, _) ->
          let p =
            Profile.create ~wpq_stall_probe:(fun tid -> Sim.wpq_stall_ns_of sim2 ~tid) m2
          in
          Some (tr, p)
      in
      let t0 = Unix.gettimeofday () in
      let ptm2 =
        Ptm.recover ?profiler:(Option.map snd tracing2) ~rng_seed:(cfg.seed + shard) m2
      in
      let wall_ns = int_of_float (1e9 *. (Unix.gettimeofday () -. t0)) in
      let rr =
        match Ptm.last_recovery ptm2 with Some rr -> rr | None -> assert false
      in
      let store2 = Store.attach ptm2 in
      let marker = Ptm.atomic ptm2 (fun tx -> Store.batch_marker tx store2) in
      let modeled = modeled_recovery_ns sim_cfg ~needs_flush:m2.Machine.needs_flush rr in
      let at = match crash_at with Some at -> at | None -> 0 in
      let offset = at + modeled + cfg.restart_gap_ns in
      (* Service-level downtime spans: trace -1 keeps them out of
         per-request accounting but on the Perfetto service track. *)
      (match tracing2 with
      | None -> ()
      | Some (tr, _) ->
        ignore
          (Trace.span tr ~trace:(-1) ~parent:Trace.root_parent ~kind:"recovery" ~tid:shard
             ~start_ns:at ~stop_ns:(at + modeled));
        ignore
          (Trace.span tr ~trace:(-1) ~parent:Trace.root_parent ~kind:"restart-gap" ~tid:shard
             ~start_ns:(at + modeled) ~stop_ns:offset));
      (* Durably-applied writes whose reply was lost: answer from the
         recovered state at the restart instant. *)
      for p = 0 to n - 1 do
        if (not answered.(p)) && is_write subs.(p).op && subs.(p).seq <= marker then begin
          let out = reconstruct ptm2 store2 subs.(p).op in
          events := { e_id = subs.(p).id; e_part = subs.(p).part; e_done = offset; e_out = out }
                    :: !events;
          (match tracing2 with
          | None -> ()
          | Some (tr, _) ->
            ignore
              (Trace.span tr ~trace:subs.(p).strace ~parent:Trace.root_parent
                 ~kind:"lost-reply-recovery" ~tid:shard ~start_ns:subs.(p).arrival
                 ~stop_ns:offset));
          answered.(p) <- true
        end
      done;
      let replay =
        Array.of_list (List.filter (fun p -> not answered.(p)) (Array.to_list all_positions))
      in
      if Array.length replay > 0 then
        ignore
          (Sim.spawn sim2
             (executor cfg ~sim:sim2 ~m:m2 ~ptm:ptm2 ~store:store2 ~subs ~positions:replay
                ~arrival:(fun p -> max (subs.(p).arrival - offset) 0)
                ~garrival:(fun p -> subs.(p).arrival)
                ~offset ~events ~answered ~batches ~batch_sizes ~max_batch_seen ~throttled
                ~tracing:tracing2 ~shard));
      if Array.length replay > 0 then Sim.run sim2;
      let sim2_fields = Sim.Stats.fields (Sim.Stats.get sim2) in
      Sim.release sim2;
      ( offset + Sim.now sim2,
        Some
          {
            r_shard = shard;
            r_logs_scanned = rr.Ptm.Recovery_report.logs_scanned;
            r_words_scanned = rr.Ptm.Recovery_report.words_scanned;
            r_entries_replayed = rr.Ptm.Recovery_report.entries_replayed;
            r_entries_rolled_back = rr.Ptm.Recovery_report.entries_rolled_back;
            r_durable_marker = marker;
            r_replayed_ops = Array.length replay;
            r_modeled_ns = modeled;
            r_wall_ns = wall_ns;
          },
        Some (Ptm.Stats.get ptm2),
        Some sim2_fields )
    end
  in
  let st = Ptm.Stats.get ptm in
  let st =
    match st2 with
    | None -> st
    | Some s2 ->
      {
        Ptm.Stats.commits = st.Ptm.Stats.commits + s2.Ptm.Stats.commits;
        aborts = st.Ptm.Stats.aborts + s2.Ptm.Stats.aborts;
        read_only_commits = st.Ptm.Stats.read_only_commits + s2.Ptm.Stats.read_only_commits;
        max_write_set = max st.Ptm.Stats.max_write_set s2.Ptm.Stats.max_write_set;
        max_log_lines = max st.Ptm.Stats.max_log_lines s2.Ptm.Stats.max_log_lines;
      }
  in
  let sim_fields = Sim.Stats.fields (Sim.Stats.get sim) in
  (* The shard is done: its metadata space serves the next shard. *)
  Sim.release sim;
  let sim_fields =
    match sim2_fields with
    | None -> sim_fields
    | Some f2 -> List.map2 (fun (k, v) (_, v2) -> (k, v + v2)) sim_fields f2
  in
  {
    c_events = List.rev !events;
    c_batch_sizes = !batch_sizes;
    c_stats =
      {
        s_shard = shard;
        s_ops = n;
        s_commits = st.Ptm.Stats.commits;
        s_aborts = st.Ptm.Stats.aborts;
        s_batches = !batches;
        s_max_batch = !max_batch_seen;
        s_throttled = !throttled;
        s_elapsed_ns = elapsed;
        s_ptm = st;
        s_sim = sim_fields;
      };
    c_recovery = recovery;
    c_capture = capture;
    c_trace = Option.map fst tracing;
  }

(* ---------- assembly ---------- *)

type result = {
  model : string;
  requests : int;
  kv_ops : int;
  protocol_errors : int;
  get_hits : int;
  get_misses : int;
  elapsed_ns : int;
  ops_per_sec : float;
  replies : string array;
  latency : (opcode * Histogram.t) list;
  batch_occupancy : Histogram.t;
  shard_ops : int array;
  imbalance : float;
  shards : shard_stats list;
  recoveries : recovery list;
  crashed : bool;
  captures : (int * Telemetry.capture) list;
  trace : Trace.t option;
}

let render_out = function
  | O_stored -> Protocol.render_reply Protocol.Stored
  | O_deleted -> Protocol.render_reply Protocol.Deleted
  | O_not_found -> Protocol.render_reply Protocol.Not_found
  | O_number v -> Protocol.render_reply (Protocol.Number v)
  | O_not_numeric ->
    Protocol.render_reply
      (Protocol.Client_error "cannot increment or decrement non-numeric value")
  | O_hit _ | O_miss -> assert false

(* The unified metrics registry over a finished run: service-level
   counters and latency histograms, per-shard PTM and simulated-machine
   counters, and (when the run crashed) the recovery-report counters —
   one definition behind the Prometheus text, the [stats] verb and the
   JSONL export.  Purely a projection of [result]: building it twice
   yields byte-identical exports. *)
let registry (cfg : config) (r : result) =
  let reg = Registry.create () in
  let gauge ?(labels = []) name help v = Registry.set_int (Registry.gauge reg ~help ~labels name) v in
  let count ?(labels = []) name help v = Registry.inc (Registry.counter reg ~help ~labels name) v in
  count "kvserve_requests" "parsed requests answered (protocol errors included)" r.requests;
  count "kvserve_kv_ops" "sub-operations executed against shards" r.kv_ops;
  count "kvserve_protocol_errors" "malformed frames answered" r.protocol_errors;
  count "kvserve_get_hits" "get sub-operations that hit" r.get_hits;
  count "kvserve_get_misses" "get sub-operations that missed" r.get_misses;
  gauge "kvserve_shards" "shard count" cfg.shards;
  gauge "kvserve_elapsed_ns" "final virtual time, max over shards" r.elapsed_ns;
  gauge "kvserve_crashed" "1 when the run crashed and recovered" (if r.crashed then 1 else 0);
  List.iter
    (fun (oc, h) ->
      if Histogram.count h > 0 then
        Registry.observe_hist
          (Registry.histogram reg ~help:"request latency, arrival to completion (virtual ns)"
             ~labels:[ ("op", opcode_name oc) ]
             "kvserve_op_latency_ns")
          h)
    r.latency;
  if Histogram.count r.batch_occupancy > 0 then
    Registry.observe_hist
      (Registry.histogram reg ~help:"writes coalesced per commit" "kvserve_batch_occupancy")
      r.batch_occupancy;
  List.iter
    (fun s ->
      let labels = [ ("shard", string_of_int s.s_shard) ] in
      count ~labels "kvserve_shard_ops" "sub-operations executed by this shard" s.s_ops;
      count ~labels "kvserve_shard_batches" "write batches committed" s.s_batches;
      count ~labels "kvserve_shard_throttled" "batches clamped by the debt knob" s.s_throttled;
      gauge ~labels "kvserve_shard_elapsed_ns" "this shard's final virtual time" s.s_elapsed_ns;
      Registry.publish_ptm_stats reg ~labels s.s_ptm;
      List.iter
        (fun (field, v) ->
          Registry.set_int
            (Registry.gauge reg ~help:"simulated machine counter" ~labels ("sim_" ^ field))
            v)
        s.s_sim)
    r.shards;
  (* Recovery-time counters (wall time deliberately excluded: it is the
     one nondeterministic field of the report). *)
  List.iter
    (fun rc ->
      let labels = [ ("shard", string_of_int rc.r_shard) ] in
      let g name help v = gauge ~labels ("kvserve_recovery_" ^ name) help v in
      g "logs_scanned" "per-thread logs scanned at recovery" rc.r_logs_scanned;
      g "words_scanned" "log words scanned at recovery" rc.r_words_scanned;
      g "entries_replayed" "redo entries replayed" rc.r_entries_replayed;
      g "entries_rolled_back" "undo entries rolled back" rc.r_entries_rolled_back;
      g "durable_marker" "last write batch that survived the crash" rc.r_durable_marker;
      g "replayed_ops" "sub-operations re-run after the marker" rc.r_replayed_ops;
      g "modeled_ns" "modeled recovery time (virtual ns)" rc.r_modeled_ns)
    r.recoveries;
  reg

let run ?jobs ?crash_at cfg (fleet : Client.t) =
  let fe = frontend cfg fleet in
  let cells =
    Pool.run ?jobs
      (List.init cfg.shards (fun shard () ->
           run_shard cfg ~crash_at ~shard fe.queues.(shard)))
  in
  let hist = [ Op_get; Op_set; Op_delete; Op_incr ] in
  let latency = List.map (fun oc -> (oc, Histogram.create ())) hist in
  let batch_occupancy = Histogram.create () in
  let get_hits = ref 0 and get_misses = ref 0 in
  (* Apply shard events in shard order: parts land in their items; an
     item completes when its last part does. *)
  List.iter
    (fun cell ->
      List.iter
        (fun ev ->
          let item = fe.items.(ev.e_id) in
          (match item.payload with
          | P_get g ->
            (match ev.e_out with
            | O_hit (flags, data) ->
              g.hits.(ev.e_part) <- Some (flags, data);
              incr get_hits
            | O_miss -> incr get_misses
            | _ -> assert false)
          | P_write w -> w.reply <- render_out ev.e_out
          | P_error _ | P_stats _ -> assert false);
          item.done_at <- max item.done_at ev.e_done;
          item.unanswered <- item.unanswered - 1;
          if item.unanswered = 0 then
            match item.opcode with
            | Some oc ->
              Histogram.record (List.assoc oc latency) (item.done_at - item.arrival)
            | None -> ())
        cell.c_events;
      List.iter (Histogram.record batch_occupancy) (List.rev cell.c_batch_sizes))
    cells;
  (* Assemble the service-global trace: one root ("request") span per
     traced item, then every shard store merged with its local parents
     rebased and root references resolved.  Roots come first in item
     order and shards merge in shard order, so the store (and its
     digest) is identical for any [jobs] value. *)
  let trace =
    if not cfg.trace then None
    else begin
      let tr = Trace.create () in
      let root_of = Hashtbl.create 1024 in
      Array.iter
        (fun (item : item) ->
          if item.trace >= 0 then begin
            let idx =
              Trace.span tr ~trace:item.trace ~parent:Trace.root_parent ~kind:"request"
                ~tid:item.conn ~start_ns:item.arrival
                ~stop_ns:(max item.arrival item.done_at)
            in
            Hashtbl.replace root_of item.trace idx
          end)
        fe.items;
      let root_for t =
        if t < 0 then Trace.root_parent
        else Option.value (Hashtbl.find_opt root_of t) ~default:Trace.root_parent
      in
      List.iter
        (fun cell ->
          match cell.c_trace with
          | Some src -> Trace.merge_into ~src ~dst:tr ~root_for
          | None -> ())
        cells;
      Some tr
    end
  in
  let protocol_errors =
    Array.fold_left
      (fun acc item -> match item.payload with P_error _ -> acc + 1 | _ -> acc)
      0 fe.items
  in
  let shard_ops = Array.of_list (List.map (fun c -> c.c_stats.s_ops) cells) in
  let kv_ops = Array.fold_left ( + ) 0 shard_ops in
  let elapsed_ns = List.fold_left (fun acc c -> max acc c.c_stats.s_elapsed_ns) 1 cells in
  let mean_load = float_of_int kv_ops /. float_of_int (max 1 cfg.shards) in
  let imbalance =
    if kv_ops = 0 then 1.0
    else float_of_int (Array.fold_left max 0 shard_ops) /. mean_load
  in
  let result_of replies =
    {
      model = cfg.model.Config.model_name;
      requests = Array.length fe.items;
      kv_ops;
      protocol_errors;
      get_hits = !get_hits;
      get_misses = !get_misses;
      elapsed_ns;
      ops_per_sec = float_of_int kv_ops /. (float_of_int elapsed_ns *. 1e-9);
      replies;
      latency;
      batch_occupancy;
      shard_ops;
      imbalance;
      shards = List.map (fun c -> c.c_stats) cells;
      recoveries = List.filter_map (fun c -> c.c_recovery) cells;
      crashed = List.exists (fun c -> c.c_recovery <> None) cells;
      captures = List.filter_map (fun c -> c.c_capture) cells;
      trace;
    }
  in
  (* [stats] replies: every stats request answers with the same
     end-of-run registry snapshot (the registry is a projection of the
     result, which is complete before replies render). *)
  if
    Array.exists
      (fun item -> match item.payload with P_stats _ -> true | _ -> false)
      fe.items
  then begin
    let pairs = Registry.stats_pairs (registry cfg (result_of [||])) in
    let rendered = Protocol.render_reply (Protocol.Stats_reply pairs) in
    Array.iter
      (fun item -> match item.payload with P_stats s -> s.reply <- rendered | _ -> ())
      fe.items
  end;
  (* Render per-connection reply streams in request order. *)
  let bufs = Array.init fleet.Client.conns (fun _ -> Buffer.create 256) in
  Array.iter
    (fun item ->
      let reply =
        match item.payload with
        | P_error e -> e
        | P_write w -> w.reply
        | P_stats s -> s.reply
        | P_get g ->
          let hits = ref [] in
          for k = Array.length g.keys - 1 downto 0 do
            match g.hits.(k) with
            | Some (flags, data) -> hits := (g.keys.(k), flags, data) :: !hits
            | None -> ()
          done;
          Protocol.render_reply (Protocol.Values !hits)
      in
      Buffer.add_string bufs.(item.conn) reply)
    fe.items;
  result_of (Array.map Buffer.contents bufs)

(* ---------- metrics export ---------- *)

let metrics_jsonl (cfg : config) (r : result) =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  let esc = Telemetry.Export.json_escape in
  line
    "{\"schema\":%S,\"kind\":\"kvserve\",\"model\":\"%s\",\"shards\":%d,\"requests\":%d,\"kv_ops\":%d,\"protocol_errors\":%d,\"elapsed_ns\":%d,\"crashed\":%b}"
    Telemetry.Export.schema_version (esc r.model) cfg.shards r.requests r.kv_ops
    r.protocol_errors r.elapsed_ns r.crashed;
  List.iter
    (fun (oc, h) ->
      if Histogram.count h > 0 then
        line
          "{\"kind\":\"op-latency\",\"op\":\"%s\",\"count\":%d,\"mean_ns\":%.1f,\"p50_ns\":%.1f,\"p95_ns\":%.1f,\"p99_ns\":%.1f,\"max_ns\":%d}"
          (opcode_name oc) (Histogram.count h) (Histogram.mean h)
          (Histogram.percentile h 50.0) (Histogram.percentile h 95.0)
          (Histogram.percentile h 99.0) (Histogram.max_value h))
    r.latency;
  if Histogram.count r.batch_occupancy > 0 then
    line
      "{\"kind\":\"batch-occupancy\",\"batches\":%d,\"mean\":%.2f,\"p95\":%.1f,\"max\":%d,\"hits\":%d,\"misses\":%d,\"imbalance\":%.3f}"
      (Histogram.count r.batch_occupancy)
      (Histogram.mean r.batch_occupancy)
      (Histogram.percentile r.batch_occupancy 95.0)
      (Histogram.max_value r.batch_occupancy)
      r.get_hits r.get_misses r.imbalance;
  List.iter
    (fun s ->
      line
        "{\"kind\":\"shard\",\"shard\":%d,\"ops\":%d,\"commits\":%d,\"aborts\":%d,\"batches\":%d,\"max_batch\":%d,\"throttled\":%d,\"elapsed_ns\":%d}"
        s.s_shard s.s_ops s.s_commits s.s_aborts s.s_batches s.s_max_batch s.s_throttled
        s.s_elapsed_ns)
    r.shards;
  List.iter
    (fun rc ->
      line
        "{\"kind\":\"recovery\",\"shard\":%d,\"logs_scanned\":%d,\"words_scanned\":%d,\"entries_replayed\":%d,\"entries_rolled_back\":%d,\"durable_marker\":%d,\"replayed_ops\":%d,\"modeled_ns\":%d}"
        rc.r_shard rc.r_logs_scanned rc.r_words_scanned rc.r_entries_replayed
        rc.r_entries_rolled_back rc.r_durable_marker rc.r_replayed_ops rc.r_modeled_ns)
    r.recoveries;
  (* Unified-registry rows: the same metrics (steady-state and, after a
     crash, the folded-in recovery counters) the Prometheus text and
     the [stats] verb expose. *)
  Buffer.add_string b (Registry.jsonl (registry cfg r));
  Buffer.contents b
