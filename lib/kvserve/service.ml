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
  prepopulate_items : int;
  value_bytes : int;
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
    prepopulate_items = 2048;
    value_bytes = 64;
    trace = false;
    seed = 0xCAFE;
  }

(* Admission cap: writes coalesced per commit. *)
let max_batch = 8

(* Backpressure threshold on WPQ + armed-log lines: at or above it the
   batch cap drops to 1. *)
let debt_line_limit = 24

(* Modeled service-restart cost (process start, reattach) between the
   crash and the replay phase. *)
let restart_gap_ns = 50_000

type opcode = Op_get | Op_set | Op_delete | Op_incr

let opcode_name = function
  | Op_get -> "get"
  | Op_set -> "set"
  | Op_delete -> "delete"
  | Op_incr -> "incr"

(* ---------- frontend: parse into columns, route ---------- *)

(* Growable column, private to the service: [a.(0 .. n-1)] are live. *)
module Col = struct
  type 'a t = { mutable a : 'a array; mutable n : int; fill : 'a }

  let create ~fill cap = { a = Array.make (max 16 cap) fill; n = 0; fill }

  let push c v =
    if c.n = Array.length c.a then begin
      let a = Array.make (2 * c.n) c.fill in
      Array.blit c.a 0 a 0 c.n;
      c.a <- a
    end;
    c.a.(c.n) <- v;
    c.n <- c.n + 1
end

type kind = K_get | K_set | K_delete | K_incr | K_stats | K_error

(* Every parsed item, one row each, in parse order.  A request's
   sub-operations are [first .. first + parts - 1] in the sub columns: a
   multi-key [get] has one per key (its shards answer independently; the
   reply merges in key order), a write one, [stats] and protocol errors
   none. *)
type requests = {
  n : int;
  conn : int array;
  arrival : int array;
  kind : kind array;
  trace : int array;  (* trace id; -1 when tracing is off or untraced *)
  first : int array;
  parts : int array;
  arg : int array;  (* [set] flags, [incr] delta *)
  data : string array;  (* [set] payload, or the rendered error reply *)
  key : string array;  (* per sub-operation *)
}

(* One shard's sub-operations in arrival order: request row, global sub
   index and, for writes, the per-shard write [seq] — the batch-marker
   currency (0 for reads). *)
type lane = { req : int array; sub : int array; seq : int array }

let frontend (cfg : config) (fleet : Client.t) =
  let hint = fleet.Client.requests in
  let conn = Col.create ~fill:0 hint and arrival = Col.create ~fill:0 hint in
  let kind = Col.create ~fill:K_error hint and trace = Col.create ~fill:(-1) hint in
  let first = Col.create ~fill:0 hint and parts = Col.create ~fill:0 hint in
  let arg = Col.create ~fill:0 hint and data = Col.create ~fill:"" hint in
  let key = Col.create ~fill:"" hint in
  (* Trace-context allocation: the [o]-th parsed item on a connection
     takes the generator-assigned id when the fleet carries one, and a
     synthesized (conn, ordinal) id otherwise.  Ordinals advance on
     protocol errors too, so a torn frame never shifts later ids. *)
  let ord = Array.make fleet.Client.conns 0 in
  let next_trace c =
    let o = ord.(c) in
    ord.(c) <- o + 1;
    if not cfg.trace then -1
    else if c < Array.length fleet.Client.trace_ids && o < Array.length fleet.Client.trace_ids.(c)
    then fleet.Client.trace_ids.(c).(o)
    else (c lsl 20) + o
  in
  let row ~c ~at k ~tr ~nparts ~a ~d =
    Col.push conn c;
    Col.push arrival at;
    Col.push kind k;
    Col.push trace tr;
    Col.push first key.Col.n;
    Col.push parts nparts;
    Col.push arg a;
    Col.push data d
  in
  let parsers = Array.init fleet.Client.conns (fun _ -> Protocol.parser_create ()) in
  List.iter
    (fun { Client.arrival_ns = at; conn = c; bytes } ->
      let p = parsers.(c) in
      Protocol.feed p bytes;
      let rec pump () =
        match Protocol.next p with
        | None -> ()
        | Some item ->
          (match item with
          | Protocol.Protocol_error reply ->
            ignore (next_trace c);
            row ~c ~at K_error ~tr:(-1) ~nparts:0 ~a:0 ~d:reply
          | Protocol.Request r -> (
            let tr = next_trace c in
            match r with
            | Protocol.Get keys ->
              row ~c ~at K_get ~tr ~nparts:(List.length keys) ~a:0 ~d:"";
              List.iter (Col.push key) keys
            | Protocol.Set { key = k; flags; data = d } ->
              row ~c ~at K_set ~tr ~nparts:1 ~a:flags ~d;
              Col.push key k
            | Protocol.Delete k ->
              row ~c ~at K_delete ~tr ~nparts:1 ~a:0 ~d:"";
              Col.push key k
            | Protocol.Incr { key = k; delta } ->
              row ~c ~at K_incr ~tr ~nparts:1 ~a:delta ~d:"";
              Col.push key k
            | Protocol.Stats ->
              (* Answered at assembly from the end-of-run registry
                 snapshot: no shard work, completes at its arrival. *)
              row ~c ~at K_stats ~tr ~nparts:0 ~a:0 ~d:""));
          pump ()
      in
      pump ())
    fleet.Client.chunks;
  let rq =
    {
      n = conn.Col.n;
      conn = conn.Col.a;
      arrival = arrival.Col.a;
      kind = kind.Col.a;
      trace = trace.Col.a;
      first = first.Col.a;
      parts = parts.Col.a;
      arg = arg.Col.a;
      data = data.Col.a;
      key = key.Col.a;
    }
  in
  (* Route: count each shard's subs, then fill exact-size lanes in
     global sub order, which is arrival order. *)
  let shard_of s = Router.shard_of_key ~shards:cfg.shards rq.key.(s) in
  let size = Array.make cfg.shards 0 in
  for s = 0 to key.Col.n - 1 do
    let sh = shard_of s in
    size.(sh) <- size.(sh) + 1
  done;
  let lanes =
    Array.map
      (fun n -> { req = Array.make n 0; sub = Array.make n 0; seq = Array.make n 0 })
      size
  in
  let fill = Array.make cfg.shards 0 and wseq = Array.make cfg.shards 0 in
  for r = 0 to rq.n - 1 do
    for s = rq.first.(r) to rq.first.(r) + rq.parts.(r) - 1 do
      let sh = shard_of s in
      let l = lanes.(sh) and i = fill.(sh) in
      fill.(sh) <- i + 1;
      l.req.(i) <- r;
      l.sub.(i) <- s;
      if rq.kind.(r) <> K_get then begin
        wseq.(sh) <- wseq.(sh) + 1;
        l.seq.(i) <- wseq.(sh)
      end
    done
  done;
  (rq, lanes)

(* ---------- per-shard execution ---------- *)

type outcome =
  | O_pending
  | O_hit
  | O_miss
  | O_stored
  | O_deleted
  | O_not_found
  | O_number
  | O_not_numeric

(* Outcome slots, indexed by global sub: the executor of the sub's shard
   writes them, assembly reads them once every shard is done.  A sub is
   answered once [done_at] (service-global) is set; [num] is a hit's
   flags or an [incr]'s new value, [hit] a hit's payload. *)
type slots = { done_at : int array; code : outcome array; num : int array; hit : string array }

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

(* A shard's write-batch tallies. *)
type tally = {
  mutable batches : int;
  batch_sizes : int Col.t;  (* commit order *)
  mutable max_batch_seen : int;
  mutable throttled : int;
}

type cell = {
  c_batch_sizes : int Col.t;
  c_stats : shard_stats;
  c_recovery : recovery option;
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

let apply_write tx store (rq : requests) (out : slots) ~r ~sub =
  let key = rq.key.(sub) in
  match rq.kind.(r) with
  | K_set ->
    Store.set tx store ~key ~flags:rq.arg.(r) rq.data.(r);
    out.code.(sub) <- O_stored
  | K_delete -> out.code.(sub) <- (if Store.delete tx store key then O_deleted else O_not_found)
  | K_incr -> (
    match Store.incr tx store key rq.arg.(r) with
    | Store.New_value v ->
      out.code.(sub) <- O_number;
      out.num.(sub) <- v
    | Store.Missing -> out.code.(sub) <- O_not_found
    | Store.Not_numeric -> out.code.(sub) <- O_not_numeric)
  | K_get | K_stats | K_error -> assert false

(* The executor: walk [positions] (indices into [lane], arrival order)
   inside a simulated thread, batching adjacent arrived writes into one
   transaction and running gets as individual read-only transactions,
   and write each sub's outcome into its slots.  [offset] converts this
   sim's clock to service-global time.

   [garrival] is a sub's arrival on the service-global clock (equal to
   [arrival] in the primary pass; during replay [arrival] is rebased to
   the restarted sim's clock while spans keep global instants).  When
   [tracing] is on, each executed sub gets a wait span (queue-wait /
   throttle-wait for a batch leader, batch-wait for followers) and an
   execution span (commit / read) whose children are the PTM profile
   slices bracketed by the transaction — pure observation, recorded
   from clock values the executor already read. *)
let executor ~sim ~ptm ~store ~(rq : requests) ~(lane : lane) ~(out : slots) ~positions
    ~arrival ~garrival ~offset ~tally ~tracing ~shard () =
  let m = Sim.machine sim in
  let n = Array.length positions in
  let now () = Sim.now sim in
  let is_write p = rq.kind.(lane.req.(p)) <> K_get in
  let armed_log_lines () = Ptm.armed_log_lines ptm in
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
      let strace = rq.trace.(lane.req.(p)) in
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
    else if is_write p then begin
      (* Debt-driven admission: past the line limit, writes are let in
         one at a time until the WPQ has drained. *)
      let clamped = Sim.Debt.pending_lines sim ~armed_log_lines >= debt_line_limit in
      let cap = if clamped then 1 else max_batch in
      let j = ref !i in
      while
        !j < n && !j - !i < cap
        && (let q = positions.(!j) in
            is_write q && arrival q <= t)
      do
        incr j
      done;
      let lo = !i and hi = !j in
      let m0 = mark () in
      (* A retried transaction rewrites the same slots; a crash before
         the commit leaves them unanswered ([done_at] unset). *)
      Ptm.atomic ptm (fun tx ->
          for k = lo to hi - 1 do
            let q = positions.(k) in
            apply_write tx store rq out ~r:lane.req.(q) ~sub:lane.sub.(q)
          done;
          Store.set_batch_marker tx store lane.seq.(positions.(hi - 1)));
      let done_t = now () in
      let slices = slices_since m0 in
      for k = lo to hi - 1 do
        let q = positions.(k) in
        let wait_kind =
          if k > lo then "batch-wait" else if clamped then "throttle-wait" else "queue-wait"
        in
        trace_exec ~p:q ~wait_kind ~exec_kind:"commit" ~pickup:t ~done_t ~slices;
        out.done_at.(lane.sub.(q)) <- done_t + offset
      done;
      let size = hi - lo in
      tally.batches <- tally.batches + 1;
      Col.push tally.batch_sizes size;
      tally.max_batch_seen <- max tally.max_batch_seen size;
      if clamped then tally.throttled <- tally.throttled + 1;
      i := hi
    end
    else begin
      let sub = lane.sub.(p) in
      let m0 = mark () in
      let found = Ptm.atomic ptm (fun tx -> Store.get tx store rq.key.(sub)) in
      let done_t = now () in
      trace_exec ~p ~wait_kind:"queue-wait" ~exec_kind:"read" ~pickup:t ~done_t
        ~slices:(slices_since m0);
      (match found with
      | Some (flags, data) ->
        out.code.(sub) <- O_hit;
        out.num.(sub) <- flags;
        out.hit.(sub) <- data
      | None -> out.code.(sub) <- O_miss);
      out.done_at.(sub) <- done_t + offset;
      incr i
    end
  done

(* Reply reconstruction for writes whose commit survived the crash but
   whose response was lost with the pre-crash process: answer from the
   recovered state (a real server's client would have seen a dropped
   connection; the simulated fleet gets a deterministic answer). *)
let reconstruct ptm store (rq : requests) (out : slots) ~r ~sub =
  let key = rq.key.(sub) in
  Ptm.atomic ptm (fun tx ->
      match rq.kind.(r) with
      | K_set -> out.code.(sub) <- O_stored
      | K_delete ->
        out.code.(sub) <- (if Store.get tx store key = None then O_deleted else O_not_found)
      | K_incr -> (
        match Store.get tx store key with
        | None -> out.code.(sub) <- O_not_found
        | Some (_, s) -> (
          match int_of_string_opt s with
          | Some v ->
            out.code.(sub) <- O_number;
            out.num.(sub) <- v
          | None -> out.code.(sub) <- O_not_numeric))
      | K_get | K_stats | K_error -> assert false)

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

let run_shard cfg ~crash_at ~shard (rq : requests) (lane : lane) (out : slots) =
  let n = Array.length lane.sub in
  let arrival p = rq.arrival.(lane.req.(p)) in
  let answered p = out.done_at.(lane.sub.(p)) >= 0 in
  let track = crash_at <> None in
  let sim_cfg =
    Config.make ~heap_words:cfg.heap_words_per_shard ~track_media:track cfg.model
  in
  Sim.with_ (Sim.create sim_cfg) @@ fun sim ->
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
  (* Request tracing rides on a phase profiler (observation-only, so
     enabling it perturbs no virtual time). *)
  let tracing =
    if not cfg.trace then None
    else begin
      let prof = Profile.create ~wpq_stall_probe:(fun tid -> Sim.wpq_stall_ns_of sim ~tid) m in
      Ptm.set_profiler ptm (Some prof);
      Some (Trace.create (), prof)
    end
  in
  let tally =
    { batches = 0; batch_sizes = Col.create ~fill:0 (n / 4); max_batch_seen = 0; throttled = 0 }
  in
  if n > 0 then
    ignore
      (Sim.spawn sim
         (executor ~sim ~ptm ~store ~rq ~lane ~out ~positions:(Array.init n Fun.id) ~arrival
            ~garrival:arrival ~offset:0 ~tally ~tracing ~shard));
  (match crash_at with None -> Sim.run sim | Some at -> Sim.run ~crash_at:at sim);
  let crashed = Sim.crashed sim in
  let elapsed, recovery, st2, sim2_fields =
    if not crashed then (Sim.now sim, None, None, None)
    else begin
      (* Restart: reboot the machine image, recover the PTM, find the
         durable prefix, reconstruct lost replies, replay the rest. *)
      Sim.with_ (Sim.reboot sim) @@ fun sim2 ->
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
      let offset = at + modeled + restart_gap_ns in
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
        let r = lane.req.(p) and sub = lane.sub.(p) in
        if (not (answered p)) && rq.kind.(r) <> K_get && lane.seq.(p) <= marker then begin
          reconstruct ptm2 store2 rq out ~r ~sub;
          (match tracing2 with
          | None -> ()
          | Some (tr, _) ->
            ignore
              (Trace.span tr ~trace:rq.trace.(r) ~parent:Trace.root_parent
                 ~kind:"lost-reply-recovery" ~tid:shard ~start_ns:rq.arrival.(r)
                 ~stop_ns:offset));
          out.done_at.(sub) <- offset
        end
      done;
      let replay = Array.of_list (List.filter (fun p -> not (answered p)) (List.init n Fun.id)) in
      if Array.length replay > 0 then
        ignore
          (Sim.spawn sim2
             (executor ~sim:sim2 ~ptm:ptm2 ~store:store2 ~rq ~lane ~out ~positions:replay
                ~arrival:(fun p -> max (arrival p - offset) 0)
                ~garrival:arrival ~offset ~tally ~tracing:tracing2 ~shard));
      if Array.length replay > 0 then Sim.run sim2;
      let sim2_fields = Sim.Stats.fields (Sim.Stats.get sim2) in
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
  let sim_fields =
    match sim2_fields with
    | None -> sim_fields
    | Some f2 -> List.map2 (fun (k, v) (_, v2) -> (k, v + v2)) sim_fields f2
  in
  {
    c_batch_sizes = tally.batch_sizes;
    c_stats =
      {
        s_shard = shard;
        s_ops = n;
        s_commits = st.Ptm.Stats.commits;
        s_aborts = st.Ptm.Stats.aborts;
        s_batches = tally.batches;
        s_max_batch = tally.max_batch_seen;
        s_throttled = tally.throttled;
        s_elapsed_ns = elapsed;
        s_ptm = st;
        s_sim = sim_fields;
      };
    c_recovery = recovery;
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
  trace : Trace.t option;
}

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
  let rq, lanes = frontend cfg fleet in
  let nsub = Array.fold_left (fun acc l -> acc + Array.length l.sub) 0 lanes in
  let out =
    {
      done_at = Array.make nsub (-1);
      code = Array.make nsub O_pending;
      num = Array.make nsub 0;
      hit = Array.make nsub "";
    }
  in
  (* Each shard writes only its own subs' slots; they are read below,
     after every shard has finished. *)
  let cells =
    Pool.run ?jobs
      (List.init cfg.shards (fun shard () -> run_shard cfg ~crash_at ~shard rq lanes.(shard) out))
  in
  let latency =
    List.map (fun oc -> (oc, Histogram.create ())) [ Op_get; Op_set; Op_delete; Op_incr ]
  in
  let batch_occupancy = Histogram.create () in
  List.iter
    (fun c ->
      let b = c.c_batch_sizes in
      for k = 0 to b.Col.n - 1 do
        Histogram.record batch_occupancy b.Col.a.(k)
      done)
    cells;
  (* A request completes when its last part does ([stats] and protocol
     errors at arrival, -1 while a part is unanswered); its latency is
     recorded once, when every part has answered. *)
  let done_of r =
    if rq.parts.(r) = 0 then rq.arrival.(r)
    else begin
      let d = ref 0 in
      for s = rq.first.(r) to rq.first.(r) + rq.parts.(r) - 1 do
        d := if !d < 0 || out.done_at.(s) < 0 then -1 else max !d out.done_at.(s)
      done;
      !d
    end
  in
  let get_hits = ref 0 and get_misses = ref 0 in
  let protocol_errors = ref 0 and stats_requests = ref 0 in
  for r = 0 to rq.n - 1 do
    let record oc =
      let d = done_of r in
      if d >= 0 then Histogram.record (List.assoc oc latency) (d - rq.arrival.(r))
    in
    match rq.kind.(r) with
    | K_error -> incr protocol_errors
    | K_stats -> incr stats_requests
    | K_get ->
      for s = rq.first.(r) to rq.first.(r) + rq.parts.(r) - 1 do
        match out.code.(s) with O_hit -> incr get_hits | O_miss -> incr get_misses | _ -> ()
      done;
      record Op_get
    | K_set -> record Op_set
    | K_delete -> record Op_delete
    | K_incr -> record Op_incr
  done;
  (* Assemble the service-global trace: one root ("request") span per
     traced request, then every shard store merged with its local
     parents rebased and root references resolved.  Roots come first in
     request order and shards merge in shard order, so the store (and
     its digest) is identical for any [jobs] value. *)
  let trace =
    if not cfg.trace then None
    else begin
      let tr = Trace.create () in
      let root_of = Hashtbl.create 1024 in
      for r = 0 to rq.n - 1 do
        if rq.trace.(r) >= 0 then
          Hashtbl.replace root_of rq.trace.(r)
            (Trace.span tr ~trace:rq.trace.(r) ~parent:Trace.root_parent ~kind:"request"
               ~tid:rq.conn.(r) ~start_ns:rq.arrival.(r)
               ~stop_ns:(max rq.arrival.(r) (done_of r)))
      done;
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
      requests = rq.n;
      kv_ops;
      protocol_errors = !protocol_errors;
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
      trace;
    }
  in
  (* [stats] replies: every stats request answers with the same
     end-of-run registry snapshot (the registry is a projection of the
     result, which is complete before replies render). *)
  let stats_pairs =
    if !stats_requests > 0 then Registry.stats_pairs (registry cfg (result_of [||])) else []
  in
  let render sk r =
    match rq.kind.(r) with
    | K_error -> Protocol.put_raw sk rq.data.(r)
    | K_stats -> Protocol.put_stats sk stats_pairs
    | K_get ->
      for s = rq.first.(r) to rq.first.(r) + rq.parts.(r) - 1 do
        if out.code.(s) = O_hit then
          Protocol.put_value sk ~key:rq.key.(s) ~flags:out.num.(s) out.hit.(s)
      done;
      Protocol.put_end sk
    | K_set | K_delete | K_incr -> (
      let s = rq.first.(r) in
      if out.done_at.(s) >= 0 then
        match out.code.(s) with
        | O_stored -> Protocol.put_stored sk
        | O_deleted -> Protocol.put_deleted sk
        | O_not_found -> Protocol.put_not_found sk
        | O_number -> Protocol.put_number sk out.num.(s)
        | O_not_numeric -> Protocol.put_not_numeric sk
        | O_pending | O_hit | O_miss -> assert false)
  in
  (* Per-connection reply streams in request order: one pass sizes each
     connection's output, a second writes it in place. *)
  let sinks = Array.init fleet.Client.conns (fun _ -> Protocol.sink_create ()) in
  for r = 0 to rq.n - 1 do
    render sinks.(rq.conn.(r)) r
  done;
  Array.iter Protocol.sink_alloc sinks;
  for r = 0 to rq.n - 1 do
    render sinks.(rq.conn.(r)) r
  done;
  result_of (Array.map Protocol.sink_contents sinks)

(* ---------- metrics export ---------- *)

let metrics_jsonl (cfg : config) (r : result) =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  let esc = Repro_util.Table.json_escape in
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
