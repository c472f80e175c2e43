open Memsim

(* ---------- scheduler ---------- *)

let test_sched_virtual_time_order () =
  let s = Sched.create () in
  let trace = ref [] in
  ignore
    (Sched.spawn s (fun () ->
         Sched.wait s 10;
         trace := (`A, Sched.now s) :: !trace;
         Sched.wait s 20;
         trace := (`A, Sched.now s) :: !trace));
  ignore
    (Sched.spawn s (fun () ->
         Sched.wait s 15;
         trace := (`B, Sched.now s) :: !trace;
         Sched.wait s 25;
         trace := (`B, Sched.now s) :: !trace));
  Sched.run s;
  let times = List.rev_map snd !trace in
  Alcotest.(check (list int)) "events in time order" [ 10; 15; 30; 40 ] times

let test_sched_fifo_ties () =
  let s = Sched.create () in
  let order = ref [] in
  for i = 0 to 4 do
    ignore
      (Sched.spawn s (fun () ->
           Sched.wait s 5;
           order := i :: !order))
  done;
  Sched.run s;
  Alcotest.(check (list int)) "spawn order at equal times" [ 0; 1; 2; 3; 4 ] (List.rev !order)

let test_sched_crash_kills () =
  let s = Sched.create () in
  let completed = ref 0 in
  let cleaned = ref 0 in
  for _ = 0 to 2 do
    ignore
      (Sched.spawn s (fun () ->
           Fun.protect
             ~finally:(fun () -> incr cleaned)
             (fun () ->
               for _ = 1 to 100 do
                 Sched.wait s 10
               done;
               incr completed)))
  done;
  Sched.run ~crash_at:500 s;
  Helpers.check_bool "crashed" true (Sched.crashed s);
  Helpers.check_int "no thread completed" 0 !completed;
  Helpers.check_int "protect cleanup ran in every thread" 3 !cleaned

let test_sched_wait_outside_thread_noop () =
  let s = Sched.create () in
  Sched.wait s 1000;
  Helpers.check_int "time does not advance outside threads" 0 (Sched.now s)

let test_sched_crash_time_bound () =
  let s = Sched.create () in
  ignore
    (Sched.spawn s (fun () ->
         for _ = 1 to 1000 do
           Sched.wait s 7
         done));
  Sched.run ~crash_at:100 s;
  Helpers.check_bool "final time within crash bound" true (Sched.now s <= 100)

(* Reference interleaver over per-thread (script, cleanup) wait
   scripts: every wait re-queues its thread with a fresh sequence
   number, the lowest (wake time, sequence) entry runs next, and the
   first pick at or after [crash_at] starts the kill.  A thread logs
   (tid, now, false) when it starts and after each wait.  Killing a
   thread that is suspended in its script logs (tid, now, true) and,
   when its cleanup has a wait, re-queues it at that wait; the kill
   keeps popping in the same order, and a thread popped again is
   killed again inside that wait, so cleanups never log past their
   first wait.  A thread that never started is killed silently.
   Returns the log, whether it crashed and the final clock. *)
let sched_reference ?crash_at threads =
  let ready =
    ref (List.mapi (fun tid (script, _) -> (0, tid, tid, `Start script)) threads)
  in
  let cleanup tid = snd (List.nth threads tid) in
  let seq = ref (List.length threads) in
  let log = ref [] and max_time = ref 0 and crashed = ref false in
  let push time tid state =
    max_time := max !max_time time;
    ready := (time, !seq, tid, state) :: !ready;
    incr seq
  in
  let rec loop () =
    match List.sort compare !ready with
    | [] -> ()
    | (time, _, tid, state) :: rest ->
      ready := rest;
      if Option.fold ~none:false ~some:(fun c -> time >= c) crash_at then crashed := true;
      (match state with
      | (`Start script | `Wait script) when not !crashed -> (
        log := (tid, time, false) :: !log;
        match script with [] -> () | cost :: more -> push (time + cost) tid (`Wait more))
      | `Wait _ -> (
        log := (tid, time, true) :: !log;
        match cleanup tid with [] -> () | cost :: _ -> push (time + cost) tid `Clean)
      | `Start _ | `Clean -> ());
      loop ()
  in
  loop ();
  let now = match crash_at with Some c when !crashed -> min c !max_time | _ -> !max_time in
  (List.rev !log, !crashed, now)

let sched_actual ?crash_at threads =
  let s = Sched.create () in
  let log = ref [] in
  let note killed = log := (Sched.tid s, Sched.now s, killed) :: !log in
  List.iter
    (fun (script, cleanup) ->
      ignore
        (Sched.spawn s (fun () ->
             note false;
             try
               List.iter
                 (fun cost ->
                   Sched.wait s cost;
                   note false)
                 script
             with Machine.Crashed ->
               note true;
               List.iter
                 (fun cost ->
                   Sched.wait s cost;
                   note true)
                 cleanup;
               raise Machine.Crashed)))
    threads;
  Sched.run ?crash_at s;
  (List.rev !log, Sched.crashed s, Sched.now s)

(* 2–9 threads with costs from a small set that includes 0 and repeats,
   so equal wake times — including ties re-queued after a suspension —
   are common; most cases arm a crash between 0 and 30 ns, often
   inside the run.  Each thread's crash cleanup waits zero to two
   times, so the kill both re-queues threads and kills them again. *)
let test_sched_differential =
  let gen =
    QCheck2.Gen.(
      let script = list_size (int_range 0 8) (oneofl [ 0; 0; 1; 1; 2; 3; 5 ]) in
      let cleanup = list_size (int_range 0 2) (oneofl [ 0; 1; 3 ]) in
      pair (int_range 2 9 >>= fun n -> list_repeat n (pair script cleanup)) (opt (int_range 0 30)))
  in
  Helpers.qtest ~count:500 "sched: differential vs reference interleaver" gen
    (fun (threads, crash_at) -> sched_actual ?crash_at threads = sched_reference ?crash_at threads)

(* A second reference, on the test suite's binary heap: every thread
   is queued at time 0 in spawn order, the minimum (FIFO among ties)
   runs, and each wait requeues its thread at its wake time.  A script
   is a list of (cost, chained) waits; the reference ignores the flag.
   It logs (tid, clock) at the return of every wait and, once a popped
   wake time reaches [crash_at], returns the started threads it would
   kill, in kill order (a thread never started is dropped silently).
   Also returns the threads that ran their whole script. *)
let heap_reference ?(crash_at = max_int) scripts =
  let ready = Min_heap.create () in
  List.iteri (fun tid script -> Min_heap.push ready ~key:0 (tid, script, true)) scripts;
  let log = ref [] and completed = ref [] and killed = ref [] in
  let rec run () =
    match Min_heap.pop ready with
    | None -> ()
    | Some (time, (tid, _, start)) when time >= crash_at ->
      if not start then killed := tid :: !killed;
      run ()
    | Some (time, (tid, script, start)) ->
      if not start then log := (tid, time) :: !log;
      (match script with
      | [] -> completed := tid :: !completed
      | (cost, _) :: rest -> Min_heap.push ready ~key:(time + cost) (tid, rest, false));
      run ()
  in
  run ();
  (List.rev !log, List.rev !completed, List.rev !killed)

(* Runs the scripts on [Sched] and returns the reference's triple plus
   the scheduler's counters.  A chained wait and the waits after it,
   up to the first unchained one, form one operation, as a validated
   load's do: the thread runs them inline while they advance inline,
   and the first that would suspend it suspends it with the rest as its
   program.  Each step logs the wait that just returned, at the
   thread's clock, while the thread stays suspended; the step before
   the last wait [finish]es the program, so the thread logs that wait
   itself.  A wait is counted when it is issued: by the thread, or by
   the step that returns it, so a crash that ends a program early
   leaves its unissued waits uncounted, and every run, crashed or
   not, must count each wait it issued as advanced inline or
   switched. *)
let heap_actual ?crash_at scripts =
  let s = Sched.create () in
  let log = ref [] and completed = ref [] and killed = ref [] and waits = ref 0 in
  let programs = Array.make (List.length scripts) [] and resumed = ref true in
  let finished = Array.make (List.length scripts) false in
  Sched.set_program s (fun id ->
      log := (id, Sched.now s) :: !log;
      if Sched.tid s <> id then resumed := false;
      match programs.(id) with
      | [] -> -1
      | [ cost ] ->
        incr waits;
        programs.(id) <- [];
        finished.(id) <- true;
        Sched.finish s;
        cost
      | cost :: rest ->
        incr waits;
        programs.(id) <- rest;
        cost);
  (* The operation's remaining waits and the script after it. *)
  let rec split = function
    | [] -> ([], [])
    | (cost, chained) :: rest ->
      if chained then
        let op, after = split rest in
        (cost :: op, after)
      else ([ cost ], rest)
  in
  let rec go = function
    | [] -> ()
    | (cost, chained) :: rest ->
      incr waits;
      if Sched.advance s cost then begin
        log := (Sched.tid s, Sched.now s) :: !log;
        go rest
      end
      else if not chained then begin
        Sched.wait s cost;
        log := (Sched.tid s, Sched.now s) :: !log;
        go rest
      end
      else begin
        let op, after = split rest in
        programs.(Sched.tid s) <- op;
        Sched.suspend s cost;
        if programs.(Sched.tid s) <> [] then resumed := false;
        (* A program's last wait, after [finish], returns here. *)
        if finished.(Sched.tid s) then begin
          finished.(Sched.tid s) <- false;
          log := (Sched.tid s, Sched.now s) :: !log
        end;
        go after
      end
  in
  List.iter
    (fun script ->
      ignore
        (Sched.spawn s (fun () ->
             try
               go script;
               completed := Sched.tid s :: !completed
             with Machine.Crashed -> killed := Sched.tid s :: !killed)))
    scripts;
  Sched.run ?crash_at s;
  Helpers.check_int "every wait advanced inline or switched" !waits
    (Sched.inline_advances s + Sched.context_switches s);
  Helpers.check_bool "steps run as their thread, resumes at the end" true !resumed;
  ( (List.rev !log, List.rev !completed, List.rev !killed),
    (Sched.inline_advances s, Sched.context_switches s),
    Sched.settled_waits s )

(* 1–40 threads whose waits come from a small set with 0 and short
   costs, so a requeued thread often ties queued ones (and all tie at
   spawn, at 0) while an 84 or 252 ns wait lands far from the due
   end of the ready queue.  About a third of the waits are chained to
   the next; a thread's last wait never is. *)
let heap_scripts =
  QCheck2.Gen.(
    int_range 1 40 >>= fun n ->
    list_repeat n
      ( list_size (int_range 0 12)
          (pair (oneofl [ 0; 1; 3; 6; 10; 84; 252 ]) (oneofl [ false; false; true ]))
      >|= fun script ->
        List.mapi (fun i (cost, chained) -> (cost, chained && i < List.length script - 1)) script
      ))

let unchained = List.map (List.map (fun (cost, _) -> (cost, false)))

(* The programmed run must follow the reference, count every wait by
   the same outcome as the same scripts with no program, and settle
   at most the program waits after each operation's first. *)
let programs_match ?crash_at scripts =
  let got, counts, settled = heap_actual ?crash_at scripts in
  let plain, plain_counts, plain_settled = heap_actual ?crash_at (unchained scripts) in
  let chained = List.fold_left (fun n s -> n + List.length (List.filter snd s)) 0 scripts in
  got = heap_reference ?crash_at scripts
  && plain = got && counts = plain_counts && plain_settled = 0 && settled <= chained

let test_sched_heap_reference =
  Helpers.qtest ~count:300 "sched: schedule equals the binary-heap reference" heap_scripts
    (fun scripts ->
      let waits = List.fold_left (fun n s -> n + List.length s) 0 scripts in
      let (log, completed, killed), (advances, switches), _ = heap_actual scripts in
      List.length log = waits
      && advances + switches = waits
      && List.length completed = List.length scripts
      && killed = []
      && programs_match scripts)

let test_sched_heap_reference_crash =
  Helpers.qtest ~count:300 "sched: crash kills what the binary-heap reference kills"
    QCheck2.Gen.(pair heap_scripts (int_range 0 1_500))
    (fun (scripts, crash_at) -> programs_match ~crash_at scripts)

(* Two threads with equal costs switch on every wait: after the first
   round each switch is a handoff from the Wait handler.  Thread 1 is
   resumed that way, raises, and the exception escapes [run]. *)
let test_sched_escaped_exception () =
  let s = Sched.create () in
  ignore
    (Sched.spawn s (fun () ->
         for _ = 1 to 10 do
           Sched.wait s 10
         done));
  ignore
    (Sched.spawn s (fun () ->
         Sched.wait s 10;
         Sched.wait s 10;
         failwith "thread 1"));
  (match Sched.run s with
  | () -> Alcotest.fail "the exception should escape run"
  | exception Failure msg -> Alcotest.(check string) "the thread's exception" "thread 1" msg);
  Helpers.check_bool "no thread running" false (Sched.running s);
  Helpers.check_int "now is the maximum clock" 30 (Sched.now s);
  Helpers.check_int "thread id defaults to 0" 0 (Sched.tid s);
  (* A wait far past every queued wake time: untimed, so a no-op. *)
  Sched.wait s 1_000;
  Helpers.check_int "untimed wait does not advance" 30 (Sched.now s)

(* The handoff resumes the next thread as a tail call from the Wait
   handler, so the call stack seen inside a thread is as deep at its
   10 000th wait as at its 10th. *)
let test_sched_handoff_stack_flat () =
  let s = Sched.create () in
  let depth_at = Array.make 2 0 in
  let depth () = Printexc.raw_backtrace_length (Printexc.get_callstack 100_000) in
  ignore
    (Sched.spawn s (fun () ->
         for i = 1 to 10_000 do
           Sched.wait s 1;
           if i = 10 then depth_at.(0) <- depth ();
           if i = 10_000 then depth_at.(1) <- depth ()
         done));
  ignore
    (Sched.spawn s (fun () ->
         for _ = 1 to 10_000 do
           Sched.wait s 1
         done));
  Sched.run s;
  Helpers.check_int "every wait of the lockstep pair switched" 20_000 (Sched.context_switches s);
  Helpers.check_int "so none advanced inline" 0 (Sched.inline_advances s);
  Helpers.check_int "stack depth at wait 10_000 = at wait 10" depth_at.(0) depth_at.(1)

(* ---------- bandwidth server ---------- *)

let test_server_sync_queueing () =
  let srv = Server.create ~service_ns:10 ~capacity:0 in
  let c1 = Server.acquire_sync srv ~now:0 ~latency_ns:100 in
  let c2 = Server.acquire_sync srv ~now:0 ~latency_ns:100 in
  let c3 = Server.acquire_sync srv ~now:0 ~latency_ns:100 in
  Helpers.check_int "first unqueued" 100 c1;
  Helpers.check_int "second queued by one service" 110 c2;
  Helpers.check_int "third queued by two services" 120 c3

let test_server_sync_idle_resets () =
  let srv = Server.create ~service_ns:10 ~capacity:0 in
  ignore (Server.acquire_sync srv ~now:0 ~latency_ns:100);
  let c = Server.acquire_sync srv ~now:1000 ~latency_ns:100 in
  Helpers.check_int "no queueing after idle gap" 1100 c

(* One write-back's (ready, completion) pair. *)
let enqueue srv ~now =
  Server.enqueue_fast srv ~now;
  (Server.last_ready srv, Server.last_completion srv)

let test_server_async_backpressure () =
  let srv = Server.create ~service_ns:10 ~capacity:2 in
  let ready1, completion1 = enqueue srv ~now:0 in
  let ready2, _ = enqueue srv ~now:0 in
  let ready3, _ = enqueue srv ~now:0 in
  Helpers.check_int "a1 immediate" 0 ready1;
  Helpers.check_int "a2 immediate" 0 ready2;
  Helpers.check_bool "a3 stalls until a1 drains" true (ready3 >= completion1);
  Helpers.check_bool "stall accounted" true (Server.stall_ns srv > 0)

let test_server_async_throughput_bound () =
  let srv = Server.create ~service_ns:10 ~capacity:4 in
  let last = ref 0 in
  for _ = 1 to 100 do
    last := snd (enqueue srv ~now:0)
  done;
  Helpers.check_int "100 entries at 10ns service" 1000 !last

(* ---------- cache model ---------- *)

(* Reference model for [Cache.access_fast]: the same set-associative
   LRU cache written plainly, reporting each access as a variant with
   the victim spelled out.  The tests drive it in lockstep with the
   real cache. *)
module Cache_ref = struct
  type t = {
    ways : int;
    sets : int;
    tags : int array; (* sets*ways; -1 = invalid *)
    dirty : bool array;
    stamp : int array;
    mutable tick : int;
    mutable hits : int;
    mutable misses : int;
    mutable writebacks : int;
  }

  type evicted = { line : int; dirty : bool }
  type access = Hit | Miss of evicted option

  (* Same geometry as [Cache.create]: sets rounded down to a power of
     two, at least one. *)
  let create ~bytes ~ways =
    let n = bytes / (64 * ways) in
    let rec floor_pow2 p = if p * 2 <= n then floor_pow2 (p * 2) else p in
    let sets = floor_pow2 1 in
    {
      ways;
      sets;
      tags = Array.make (sets * ways) (-1);
      dirty = Array.make (sets * ways) false;
      stamp = Array.make (sets * ways) 0;
      tick = 0;
      hits = 0;
      misses = 0;
      writebacks = 0;
    }

  (* Index of [line] within its set, or the victim way (invalid first,
     else LRU) when absent. *)
  let find (t : t) line =
    let base = (line land (t.sets - 1)) * t.ways in
    let found = ref (-1) in
    let victim = ref base in
    let oldest = ref max_int in
    for w = 0 to t.ways - 1 do
      let i = base + w in
      if t.tags.(i) = line then found := i
      else if t.tags.(i) = -1 && !oldest > -1 then begin
        (* Prefer an invalid way; mark preference with oldest = -1. *)
        victim := i;
        oldest := -1
      end
      else if !oldest >= 0 && t.stamp.(i) < !oldest then begin
        victim := i;
        oldest := t.stamp.(i)
      end
    done;
    (!found, !victim)

  let access (t : t) ~line ~write =
    t.tick <- t.tick + 1;
    let found, victim = find t line in
    if found >= 0 then begin
      t.hits <- t.hits + 1;
      t.stamp.(found) <- t.tick;
      if write then t.dirty.(found) <- true;
      Hit
    end
    else begin
      t.misses <- t.misses + 1;
      let ev =
        if t.tags.(victim) = -1 then None
        else begin
          let d = t.dirty.(victim) in
          if d then t.writebacks <- t.writebacks + 1;
          Some { line = t.tags.(victim); dirty = d }
        end
      in
      t.tags.(victim) <- line;
      t.dirty.(victim) <- write;
      t.stamp.(victim) <- t.tick;
      Miss ev
    end

  let clean (t : t) ~line =
    let found, _ = find t line in
    let was_dirty = found >= 0 && t.dirty.(found) in
    if was_dirty then t.dirty.(found) <- false;
    was_dirty

  (* Sorted by line number. *)
  let dirty_lines (t : t) =
    List.sort compare
      (List.filteri (fun i tag -> tag >= 0 && t.dirty.(i)) (Array.to_list t.tags))
end

(* [access_fast]'s packed answer for a reference outcome. *)
let packed = function
  | Cache_ref.Hit -> Cache.hit
  | Cache_ref.Miss (Some { Cache_ref.line; dirty = true }) -> line
  | Cache_ref.Miss _ -> Cache.miss_clean

(* 2-way, line 64B: sets = 1024/128 = 8.  Lines 0, 8, 16 collide in set 0. *)
let cache_pair () = (Cache.create ~bytes:1024 ~ways:2, Cache_ref.create ~bytes:1024 ~ways:2)

(* One access on both caches; the real cache must give the packed form
   of the reference's answer, which is returned for the test to check. *)
let access (c, r) ~line ~write =
  let want = Cache_ref.access r ~line ~write in
  Helpers.check_int (Printf.sprintf "access_fast agrees on line %d" line) (packed want)
    (Cache.access_fast c ~line ~write);
  want

let test_cache_hit_after_install () =
  let cr = cache_pair () in
  (match access cr ~line:1 ~write:false with
  | Cache_ref.Miss None -> ()
  | Cache_ref.Miss (Some _) | Cache_ref.Hit -> Alcotest.fail "expected cold miss");
  match access cr ~line:1 ~write:false with
  | Cache_ref.Hit -> ()
  | Cache_ref.Miss _ -> Alcotest.fail "expected hit"

let test_cache_dirty_eviction () =
  let cr = cache_pair () in
  ignore (access cr ~line:0 ~write:true);
  ignore (access cr ~line:8 ~write:false);
  match access cr ~line:16 ~write:false with
  | Cache_ref.Miss (Some { Cache_ref.line = 0; dirty = true }) -> ()
  | Cache_ref.Miss _ | Cache_ref.Hit -> Alcotest.fail "expected dirty eviction of line 0"

let test_cache_lru_within_set () =
  let cr = cache_pair () in
  ignore (access cr ~line:0 ~write:false);
  ignore (access cr ~line:8 ~write:false);
  ignore (access cr ~line:0 ~write:false);
  (* 8 is now LRU *)
  (match access cr ~line:16 ~write:false with
  | Cache_ref.Miss (Some { Cache_ref.line = 8; _ }) -> ()
  | Cache_ref.Miss _ | Cache_ref.Hit -> Alcotest.fail "expected eviction of line 8");
  match access cr ~line:0 ~write:false with
  | Cache_ref.Hit -> ()
  | Cache_ref.Miss _ -> Alcotest.fail "line 0 should have been retained"

let test_cache_clwb_keeps_line () =
  let ((c, r) as cr) = cache_pair () in
  ignore (access cr ~line:3 ~write:true);
  Helpers.check_bool "clwb reports dirty" true (Cache.clean c ~line:3 && Cache_ref.clean r ~line:3);
  (match access cr ~line:3 ~write:false with
  | Cache_ref.Hit -> ()
  | Cache_ref.Miss _ -> Alcotest.fail "clwb must retain the line");
  Helpers.check_bool "second clwb is a no-op" false (Cache.clean c ~line:3)

let test_cache_dirty_lines_listing () =
  let ((c, r) as cr) = cache_pair () in
  ignore (access cr ~line:1 ~write:true);
  ignore (access cr ~line:2 ~write:false);
  ignore (access cr ~line:3 ~write:true);
  let dirty = List.sort compare (Cache.dirty_lines c) in
  Alcotest.(check (list int)) "dirty lines" [ 1; 3 ] dirty;
  Alcotest.(check (list int)) "reference agrees" dirty (Cache_ref.dirty_lines r)

(* Random accesses and clwbs on a cache and its reference.  After every
   step the answer, the three counters and the dirty set must match. *)
let cache_differential ?size ~count name ~bytes ~ways lines =
  let op = QCheck2.Gen.(triple (int_range 0 3) lines bool) in
  let ops = match size with None -> QCheck2.Gen.list op | Some n -> QCheck2.Gen.list_size n op in
  Helpers.qtest ~count name ops (fun ops ->
      let c = Cache.create ~bytes ~ways and r = Cache_ref.create ~bytes ~ways in
      List.for_all
        (fun (kind, line, write) ->
          (if kind = 0 then Cache.clean c ~line = Cache_ref.clean r ~line
           else Cache.access_fast c ~line ~write = packed (Cache_ref.access r ~line ~write))
          && Cache.hits c = r.Cache_ref.hits
          && Cache.misses c = r.Cache_ref.misses
          && Cache.writebacks c = r.Cache_ref.writebacks
          && List.sort compare (Cache.dirty_lines c) = Cache_ref.dirty_lines r)
        ops)

(* 48 lines over a 4-set, 4-way cache, so most accesses collide and
   evict. *)
let test_cache_differential =
  cache_differential ~count:300 "cache: access_fast equals reference model" ~bytes:1024 ~ways:4
    (QCheck2.Gen.int_range 0 47)

(* The L3's own geometry (32 KB, 16 ways: 32 sets), with 24 lines on
   each of two sets, so a hit can come from any slot of a full set and
   rotates up to 15 others. *)
let test_cache_differential_l3 =
  let cfg = Config.make Config.optane_adr in
  let sets = cfg.Config.l3_bytes / (64 * cfg.Config.l3_ways) in
  cache_differential ~count:100 ~size:(QCheck2.Gen.int_range 0 600)
    "cache: access_fast equals reference model at L3 geometry" ~bytes:cfg.Config.l3_bytes
    ~ways:cfg.Config.l3_ways
    QCheck2.Gen.(map (fun (set, k) -> set + (sets * k)) (pair (int_range 0 1) (int_range 0 23)))

(* ---------- the simulated machine ---------- *)

let test_sim_load_store_roundtrip () =
  let sim, m = Helpers.sim_machine () in
  ignore
    (Sim.spawn sim (fun () ->
         m.Machine.store 100 42;
         Helpers.check_int "read back" 42 (m.Machine.load 100)));
  Sim.run sim;
  Helpers.check_int "raw read agrees" 42 (m.Machine.raw_read 100)

let test_sim_nvm_slower_than_dram () =
  let run model =
    let sim, m = Helpers.sim_machine ~model () in
    ignore
      (Sim.spawn sim (fun () ->
           (* Strided cold loads: all L3 misses. *)
           for i = 0 to 255 do
             ignore (m.Machine.load (i * 64))
           done));
    Sim.run sim;
    Sim.now sim
  in
  let dram = run Config.dram_eadr and nvm = run Config.optane_eadr in
  Helpers.check_bool
    (Printf.sprintf "optane misses ~3x dram (dram=%d nvm=%d)" dram nvm)
    true
    (float_of_int nvm > 2.0 *. float_of_int dram)

let test_sim_clwb_fence_cost () =
  (* ADR with flushes+fences must be slower than the same program under
     eADR (no flushes) — the core Fig 3/4 mechanism. *)
  let run model =
    let sim, m = Helpers.sim_machine ~model () in
    ignore
      (Sim.spawn sim (fun () ->
           for i = 0 to 199 do
             m.Machine.store i (i * 3);
             if m.Machine.needs_flush then begin
               m.Machine.clwb i;
               if m.Machine.needs_fence then m.Machine.sfence ()
             end
           done));
    Sim.run sim;
    Sim.now sim
  in
  let adr = run Config.optane_adr and eadr = run Config.optane_eadr in
  Helpers.check_bool (Printf.sprintf "adr=%d > eadr=%d" adr eadr) true (adr > eadr)

let test_sim_nofence_between_adr_and_eadr () =
  let run model =
    let sim, m = Helpers.sim_machine ~model () in
    ignore
      (Sim.spawn sim (fun () ->
           for i = 0 to 199 do
             m.Machine.store i i;
             if m.Machine.needs_flush then m.Machine.clwb i;
             if m.Machine.needs_fence then m.Machine.sfence ()
           done));
    Sim.run sim;
    Sim.now sim
  in
  let adr = run Config.optane_adr in
  let nofence = run Config.optane_adr_nofence in
  let eadr = run Config.optane_eadr in
  Helpers.check_bool "nofence cheaper than adr" true (nofence < adr);
  Helpers.check_bool "nofence dearer than eadr" true (nofence > eadr)

let test_sim_crash_adr_loses_unflushed () =
  let sim, m = Helpers.sim_machine ~model:Config.optane_adr () in
  ignore
    (Sim.spawn sim (fun () ->
         m.Machine.store 100 7;
         m.Machine.clwb 100;
         m.Machine.sfence ();
         m.Machine.store 200 9;
         (* store 200 never flushed; keep running until the crash *)
         for _ = 1 to 1000 do
           m.Machine.pause 100
         done));
  Sim.run ~crash_at:50_000 sim;
  let sim' = Sim.reboot sim in
  let m' = Sim.machine sim' in
  Helpers.check_int "flushed store survives" 7 (m'.Machine.raw_read 100);
  Helpers.check_int "unflushed store lost" 0 (m'.Machine.raw_read 200)

(* Under ADR, clwb only captures the line — durability arrives at WPQ
   service completion, and sfence is what waits for it.  A crash inside
   that window loses the flushed-but-unfenced line. *)
let test_sim_adr_clwb_completion_window () =
  let run crash_at =
    let cfg = Config.make ~nvm_channels:4 ~heap_words:(1 lsl 12) Config.optane_adr in
    let sim = Sim.create cfg in
    let m = Sim.machine sim in
    let trace = Sim.enable_trace sim in
    ignore
      (Sim.spawn sim (fun () ->
           m.Machine.store 100 7;
           m.Machine.clwb 100;
           for _ = 1 to 50 do
             m.Machine.pause 100
           done)
        : int);
    Sim.run ?crash_at sim;
    (sim, trace)
  in
  let _, trace = run None in
  let clwb_at =
    match
      Trace.find trace (fun e ->
          match e.Trace.kind with Trace.Clwb _ -> true | _ -> false)
    with
    | Some e -> e.Trace.at_ns
    | None -> Alcotest.fail "no clwb event in reference trace"
  in
  let sim, _ = run (Some (clwb_at + 1)) in
  Helpers.check_bool "crashed inside the window" true (Sim.crashed sim);
  let m' = Sim.machine (Sim.reboot sim) in
  Helpers.check_int "clwb'd line without fence is lost" 0 (m'.Machine.raw_read 100)

let test_sim_adr_fence_closes_window () =
  let run crash_at =
    let cfg = Config.make ~nvm_channels:4 ~heap_words:(1 lsl 12) Config.optane_adr in
    let sim = Sim.create cfg in
    let m = Sim.machine sim in
    let trace = Sim.enable_trace sim in
    ignore
      (Sim.spawn sim (fun () ->
           m.Machine.store 100 7;
           m.Machine.clwb 100;
           m.Machine.sfence ();
           (* marker store: program order puts it after the fence wait *)
           m.Machine.store 200 9;
           for _ = 1 to 50 do
             m.Machine.pause 100
           done)
        : int);
    Sim.run ?crash_at sim;
    (sim, trace)
  in
  let _, trace = run None in
  let marker_at =
    match
      Trace.find trace (fun e ->
          match e.Trace.kind with Trace.Store a -> a = 200 | _ -> false)
    with
    | Some e -> e.Trace.at_ns
    | None -> Alcotest.fail "no marker store in reference trace"
  in
  let sim, _ = run (Some marker_at) in
  Helpers.check_bool "crashed after the fence" true (Sim.crashed sim);
  let m' = Sim.machine (Sim.reboot sim) in
  Helpers.check_int "fenced line survives any later crash" 7 (m'.Machine.raw_read 100)

let test_trace_crash_points () =
  let tr = Trace.create () in
  Trace.record tr ~at_ns:0 ~tid:0 (Trace.Store 5);
  Trace.record tr ~at_ns:10 ~tid:0 (Trace.Clwb 5);
  Trace.record tr ~at_ns:10 ~tid:1 Trace.Sfence;
  Trace.record tr ~at_ns:12 ~tid:0 (Trace.Load 5);
  Helpers.check_bool "positive, deduped, loads skipped" true
    (Trace.crash_points tr = [ 1; 10; 11 ]);
  Helpers.check_bool "halo widens the after-point" true
    (Trace.crash_points ~halo:3 tr = [ 3; 10; 13 ])

let test_sim_crash_eadr_keeps_cached () =
  let sim, m = Helpers.sim_machine ~model:Config.optane_eadr () in
  ignore
    (Sim.spawn sim (fun () ->
         m.Machine.store 100 7;
         m.Machine.store 200 9;
         for _ = 1 to 100 do
           m.Machine.pause 100
         done));
  Sim.run ~crash_at:500 sim;
  Helpers.check_bool "crashed" true (Sim.crashed sim);
  let sim' = Sim.reboot sim in
  let m' = Sim.machine sim' in
  Helpers.check_int "cached store survives under eADR" 7 (m'.Machine.raw_read 100);
  Helpers.check_int "second store too" 9 (m'.Machine.raw_read 200)

let test_sim_crash_dram_loses_everything () =
  let sim, m = Helpers.sim_machine ~model:Config.dram_eadr () in
  ignore
    (Sim.spawn sim (fun () ->
         m.Machine.store 100 7;
         for _ = 1 to 100 do
           m.Machine.pause 100
         done));
  Sim.run ~crash_at:500 sim;
  let sim' = Sim.reboot sim in
  let m' = Sim.machine sim' in
  Helpers.check_int "DRAM ramdisk does not survive" 0 (m'.Machine.raw_read 100)

let test_sim_pdram_persists_everything () =
  let sim, m = Helpers.sim_machine ~model:Config.pdram () in
  ignore
    (Sim.spawn sim (fun () ->
         for i = 0 to 63 do
           m.Machine.store (i * 8) (i + 1)
         done;
         for _ = 1 to 200 do
           m.Machine.pause 10_000
         done));
  Sim.run ~crash_at:500_000 sim;
  let sim' = Sim.reboot sim in
  let m' = Sim.machine sim' in
  let ok = ref true in
  for i = 0 to 63 do
    if m'.Machine.raw_read (i * 8) <> i + 1 then ok := false
  done;
  Helpers.check_bool "all stores survive under PDRAM" true !ok

let test_sim_persist_all_then_adr_crash () =
  let sim, m = Helpers.sim_machine ~model:Config.optane_adr () in
  m.Machine.raw_write 300 123;
  Sim.persist_all sim;
  ignore (Sim.spawn sim (fun () -> m.Machine.pause 10_000));
  Sim.run ~crash_at:100 sim;
  let sim' = Sim.reboot sim in
  Helpers.check_int "initialized data survives" 123 ((Sim.machine sim').Machine.raw_read 300)

(* ---------- volatile metadata space ---------- *)

let raises_invalid f = match f () with _ -> false | exception Invalid_argument _ -> true

(* Major words of one metadata buffer: 4 bytes per slot. *)
let meta_buffer_words meta_words = 4 * meta_words / (Sys.word_size / 8)

(* [f ()] and the major words it allocated.  The runtime posts a
   direct major allocation to the counters only at a minor collection,
   so one brackets each reading. *)
let with_major_words f =
  Gc.minor ();
  let g0 = Gc.quick_stat () in
  let r = f () in
  Gc.minor ();
  (r, (Gc.quick_stat ()).Gc.major_words -. g0.Gc.major_words)

(* Every meta word from [lo] up reads 0. *)
let meta_zero_from ?(lo = 0) (m : Machine.t) =
  let ok = ref true in
  for i = lo to m.Machine.meta_words - 1 do
    if m.Machine.meta_get i <> 0 then ok := false
  done;
  !ok

let test_meta_shared_per_sim () =
  let sim, m1 = Helpers.sim_machine () in
  let m2 = Sim.machine sim in
  m1.Machine.meta_set 5 42;
  Helpers.check_int "second facade sees the write" 42 (m2.Machine.meta_get 5);
  Helpers.check_bool "cas through the second facade" true (m2.Machine.meta_cas 5 42 43);
  Helpers.check_int "first facade sees the cas" 43 (m1.Machine.meta_get 5)

let test_meta_release_invalidates_facade () =
  let sim, m = Helpers.sim_machine () in
  m.Machine.meta_set 3 1;
  Sim.release sim;
  Helpers.check_bool "meta_get raises" true (raises_invalid (fun () -> m.Machine.meta_get 3));
  Helpers.check_bool "meta_set raises" true (raises_invalid (fun () -> m.Machine.meta_set 3 2));
  Helpers.check_bool "meta_cas raises" true (raises_invalid (fun () -> m.Machine.meta_cas 3 1 2));
  Helpers.check_bool "meta_fetch_add raises" true
    (raises_invalid (fun () -> m.Machine.meta_fetch_add 3 1));
  Sim.release sim;
  m.Machine.raw_write 10 7;
  Helpers.check_int "heap still readable" 7 (m.Machine.raw_read 10)

let test_meta_recycled_zeroed () =
  let sim, m = Helpers.sim_machine () in
  let last = m.Machine.meta_words - 1 in
  List.iter (fun i -> m.Machine.meta_set i (i + 1)) [ 0; 64; 4097; last ];
  Sim.release sim;
  let _, m' = Helpers.sim_machine () in
  Helpers.check_bool "new machine reads zero meta" true (meta_zero_from m')

let test_meta_live_sims_disjoint () =
  (* Leave a spare behind, so one of the two sims takes it. *)
  let old, _ = Helpers.sim_machine () in
  Sim.release old;
  let _, a = Helpers.sim_machine () in
  let _, b = Helpers.sim_machine () in
  a.Machine.meta_set 9 1;
  b.Machine.meta_set 9 2;
  Helpers.check_int "a keeps its value" 1 (a.Machine.meta_get 9);
  Helpers.check_int "b keeps its value" 2 (b.Machine.meta_get 9)

let test_meta_reboot_starts_empty () =
  let sim, m, ptm = Helpers.ptm_fixture () in
  ignore
    (Sim.spawn sim (fun () ->
         let blk = Pstm.Ptm.atomic ptm (fun tx -> Pstm.Ptm.alloc tx 8) in
         for i = 1 to 20 do
           Pstm.Ptm.atomic ptm (fun tx -> Pstm.Ptm.write tx (blk + (i mod 8)) i)
         done));
  Sim.run sim;
  Helpers.check_bool "clock advanced" true (Pstm.Ptm.clock ptm > 0);
  Helpers.check_bool "orecs written" false
    (meta_zero_from ~lo:Machine.Meta_layout.orec_base m);
  let sim' = Sim.reboot sim in
  Helpers.check_bool "rebooted machine's meta released" true
    (raises_invalid (fun () -> m.Machine.meta_get Machine.Meta_layout.clock_idx));
  let m' = Sim.machine sim' in
  Helpers.check_int "clock starts at 0" 0 (m'.Machine.meta_get Machine.Meta_layout.clock_idx);
  Helpers.check_bool "orecs start at 0" true (meta_zero_from m')

(* The FAMS bench, the differential replayer and the crash engine own
   their sims, so they hand the metadata space back too: after a
   warm-up call in this domain, a second call reuses the spare instead
   of allocating a fresh [meta_words] array.  The crash probe builds
   the prepared image, re-runs to the crash, reboots and judges. *)
let test_meta_released_by_runners () =
  let buffer_words =
    meta_buffer_words (Memsim.Config.make Memsim.Config.optane_adr).Memsim.Config.meta_words
  in
  let major_words_of_second f =
    f ();
    snd (with_major_words f)
  in
  let fams () =
    ignore
      (Workloads.Fams_bench.run ~duration_ns:20_000 ~model:Memsim.Config.optane_adr
         ~granularity:Fams.Line Workloads.Fams_bench.bank)
  in
  let trace = Difftest.gen_trace 1 in
  let difftest () =
    ignore
      (Difftest.execute ~model:Memsim.Config.optane_adr ~algorithm:Pstm.Ptm.Redo ~coalesce:true
         trace)
  in
  let crash_probe () =
    let cell =
      Crashtest.Engine.ptm_cell ~model:Memsim.Config.optane_adr ~algorithm:Pstm.Ptm.Redo
        (Crashtest.Scenarios.bank ())
    in
    match Crashtest.Engine.probe ~seed:1 ~crash_at:5000 cell with
    | Ok () -> ()
    | Error e -> Alcotest.fail ("bank crash probe: " ^ e)
  in
  List.iter
    (fun (name, f) ->
      let words = major_words_of_second f in
      Helpers.check_bool
        (Printf.sprintf "%s: %.0f major words < buffer words %d" name words buffer_words)
        true
        (words < float_of_int buffer_words))
    [
      ("Fams_bench.run", fams);
      ("Difftest.execute", difftest);
      ("Crashtest.Engine.probe", crash_probe);
    ]

(* A Sim with an odd [meta_words] leaves its buffer as the spare; the
   next default-size release must replace it, so the default Sim after
   that reuses a buffer instead of allocating a fresh one. *)
let test_meta_recycled_after_odd_size () =
  let cfg = Config.make Config.optane_adr in
  (* Hold any default-size spare an earlier test left, so the odd Sim's
     release is what the slot keeps. *)
  let held, _ = Helpers.sim_machine () in
  let odd = Sim.create (Config.make ~meta_words:4096 Config.optane_adr) in
  ignore (Sim.machine odd : Machine.t);
  Sim.release odd;
  let first = Sim.create cfg in
  ignore (Sim.machine first : Machine.t);
  Sim.release first;
  let second = Sim.create cfg in
  let _, words = with_major_words (fun () -> Sim.machine second) in
  Sim.release second;
  Sim.release held;
  let buffer_words = meta_buffer_words cfg.Config.meta_words in
  Helpers.check_bool
    (Printf.sprintf "second default machine: %.0f major words < buffer words %d" words
       buffer_words)
    true
    (words < float_of_int buffer_words)

(* Metadata words are 32-bit: both ends of the range round-trip through
   every store, and a value outside it raises before anything is
   stored. *)
let test_meta_32bit_boundaries () =
  let sim, m = Helpers.sim_machine () in
  let lo = -0x8000_0000 and hi = 0x7fff_ffff in
  List.iter
    (fun v ->
      m.Machine.meta_set 7 v;
      Helpers.check_int "meta_set round-trips" v (m.Machine.meta_get 7);
      m.Machine.meta_set 7 0;
      Helpers.check_bool "meta_cas stores" true (m.Machine.meta_cas 7 0 v);
      Helpers.check_int "meta_cas round-trips" v (m.Machine.meta_get 7);
      Helpers.check_bool "meta_cas matches" true (m.Machine.meta_cas 7 v 0))
    [ lo; hi ];
  m.Machine.meta_set 8 (hi - 1);
  Helpers.check_int "fetch_add returns the old value" (hi - 1) (m.Machine.meta_fetch_add 8 1);
  Helpers.check_int "fetch_add reaches 2^31-1" hi (m.Machine.meta_get 8);
  m.Machine.meta_set 8 (lo + 1);
  ignore (m.Machine.meta_fetch_add 8 (-1) : int);
  Helpers.check_int "fetch_add reaches -2^31" lo (m.Machine.meta_get 8);
  let unchanged name slot expected f =
    Helpers.check_bool (name ^ " raises") true (raises_invalid f);
    Helpers.check_int (name ^ " leaves the slot") expected (m.Machine.meta_get slot)
  in
  m.Machine.meta_set 9 5;
  unchanged "meta_set 2^31" 9 5 (fun () -> m.Machine.meta_set 9 (hi + 1));
  unchanged "meta_set -2^31-1" 9 5 (fun () -> m.Machine.meta_set 9 (lo - 1));
  unchanged "meta_cas to 2^31" 9 5 (fun () -> m.Machine.meta_cas 9 5 (hi + 1));
  unchanged "meta_cas to -2^31-1" 9 5 (fun () -> m.Machine.meta_cas 9 5 (lo - 1));
  m.Machine.meta_set 8 hi;
  unchanged "fetch_add past 2^31-1" 8 hi (fun () -> m.Machine.meta_fetch_add 8 1);
  m.Machine.meta_set 8 lo;
  unchanged "fetch_add past -2^31" 8 lo (fun () -> m.Machine.meta_fetch_add 8 (-1));
  Sim.release sim

(* [release] zeroes only the pages a machine wrote; the next machine of
   that size takes the buffer and must still read zeros everywhere,
   the short last page of an odd-sized space included. *)
let test_meta_recycled_scattered_pages () =
  let cfg = Config.make ~meta_words:(4096 + 7) Config.optane_adr in
  let first = Sim.create cfg in
  let m = Sim.machine first in
  let last = cfg.Config.meta_words - 1 in
  List.iter (fun i -> m.Machine.meta_set i (-1)) [ 0; 511; 512; 1700; 3583; 4096; last ];
  ignore (m.Machine.meta_fetch_add 2900 (-3) : int);
  ignore (m.Machine.meta_cas 2100 0 9 : bool);
  Sim.release first;
  let second = Sim.create cfg in
  let m', words = with_major_words (fun () -> Sim.machine second) in
  let buffer_words = meta_buffer_words cfg.Config.meta_words in
  Helpers.check_bool
    (Printf.sprintf "buffer recycled: %.0f major words < buffer words %d" words buffer_words)
    true
    (words < float_of_int buffer_words);
  Helpers.check_bool "recycled space reads zero" true (meta_zero_from m');
  Sim.release second

let test_meta_machine_after_release () =
  let sim, _ = Helpers.sim_machine () in
  Sim.release sim;
  Helpers.check_bool "machine raises" true (raises_invalid (fun () -> Sim.machine sim));
  let unused = Sim.create (Config.make Config.optane_adr) in
  Sim.release unused;
  Helpers.check_bool "machine of a sim released unused raises" true
    (raises_invalid (fun () -> Sim.machine unused))

(* [with_] releases on return and on exception: a raising body still
   leaves its buffer as the spare the next machine takes. *)
let test_meta_with_releases () =
  let cfg = Config.make Config.optane_adr in
  let held, _ = Helpers.sim_machine () in
  Helpers.check_int "returns the body's value" 3
    (Sim.with_ (Sim.create cfg) (fun sim -> (Sim.machine sim).Machine.meta_fetch_add 0 3 + 3));
  let sim = Sim.create cfg in
  (match
     Sim.with_ sim (fun sim ->
         (Sim.machine sim).Machine.meta_set 0 1;
         failwith "body raised")
   with
  | () -> Alcotest.fail "with_ swallowed the exception"
  | exception Failure _ -> ());
  Helpers.check_bool "released" true (raises_invalid (fun () -> Sim.machine sim));
  let next = Sim.create cfg in
  let m, words = with_major_words (fun () -> Sim.machine next) in
  let buffer_words = meta_buffer_words cfg.Config.meta_words in
  Helpers.check_bool
    (Printf.sprintf "spare taken: %.0f major words < buffer words %d" words buffer_words)
    true
    (words < float_of_int buffer_words);
  Helpers.check_int "and zeroed" 0 (m.Machine.meta_get 0);
  Sim.release next;
  Sim.release held

let test_sim_stats_populated () =
  let sim, m = Helpers.sim_machine () in
  ignore
    (Sim.spawn sim (fun () ->
         for i = 0 to 99 do
           m.Machine.store i i;
           m.Machine.clwb i
         done;
         m.Machine.sfence ()));
  Sim.run sim;
  let st = Sim.Stats.get sim in
  Helpers.check_int "stores counted" 100 st.Sim.Stats.stores;
  Helpers.check_int "clwbs counted" 100 st.Sim.Stats.clwbs;
  Helpers.check_int "fences counted" 1 st.Sim.Stats.sfences;
  Helpers.check_bool "some L3 misses" true (st.Sim.Stats.l3_misses > 0)

let test_sim_deterministic () =
  let run () =
    let sim, m = Helpers.sim_machine () in
    let rng = Repro_util.Rng.create 9 in
    for t = 0 to 3 do
      let rng = Repro_util.Rng.split rng in
      ignore
        (Sim.spawn sim (fun () ->
             for _ = 1 to 500 do
               let a = Repro_util.Rng.int rng 4096 in
               if Repro_util.Rng.bool rng then ignore (m.Machine.load a)
               else m.Machine.store a t
             done))
    done;
    Sim.run sim;
    Sim.now sim
  in
  Helpers.check_int "same virtual time across runs" (run ()) (run ())

(* Exact-latency pins: lock the timing model down to the nanosecond so
   calibration changes are deliberate, not accidental. *)
let test_sim_exact_adr_sequence () =
  (* store(miss) ; clwb ; sfence — the canonical ADR persist sequence. *)
  let sim, m = Helpers.sim_machine ~model:Config.optane_adr () in
  let lat = Config.default_latency in
  ignore
    (Sim.spawn sim (fun () ->
         m.Machine.store 4096 1;
         m.Machine.clwb 4096;
         m.Machine.sfence ()));
  Sim.run sim;
  (* miss (252) ; clwb issues at 252, entry completes 252+62=314, clwb
     itself costs 90 -> 342; sfence target 314 already past -> +15. *)
  let expected = lat.Config.nvm_load_ns + lat.Config.clwb_ns + lat.Config.sfence_ns in
  Helpers.check_int "ADR persist sequence" expected (Sim.now sim)

let test_sim_exact_fence_wait () =
  (* A fence issued immediately after a burst of flushes must wait for
     the WPQ to drain: completion of the 4th entry = 252+4*62. *)
  let sim, m = Helpers.sim_machine ~model:Config.optane_adr () in
  let lat = Config.default_latency in
  ignore
    (Sim.spawn sim (fun () ->
         (* Four dirty lines, one miss each. *)
         for i = 0 to 3 do
           m.Machine.store (4096 + (i * 8)) 1
         done;
         for i = 0 to 3 do
           m.Machine.clwb (4096 + (i * 8))
         done;
         m.Machine.sfence ()));
  Sim.run sim;
  let t_after_stores = 4 * lat.Config.nvm_load_ns in
  let t_after_clwbs = t_after_stores + (4 * lat.Config.clwb_ns) in
  (* Entries enqueue back-to-back starting at the first clwb issue. *)
  let last_completion = t_after_stores + (4 * lat.Config.nvm_wpq_service_ns) in
  let expected = max t_after_clwbs last_completion + lat.Config.sfence_ns in
  Helpers.check_int "fence drains the queue" expected (Sim.now sim)

let test_sim_exact_cache_hit () =
  let sim, m = Helpers.sim_machine ~model:Config.optane_adr () in
  let lat = Config.default_latency in
  ignore
    (Sim.spawn sim (fun () ->
         ignore (m.Machine.load 4096);
         ignore (m.Machine.load 4097)));
  Sim.run sim;
  Helpers.check_int "miss then same-line hit"
    (lat.Config.nvm_load_ns + lat.Config.cache_hit_ns)
    (Sim.now sim)

let test_config_model_lookup () =
  List.iter
    (fun m ->
      Helpers.check_bool
        (m.Config.model_name ^ " roundtrips")
        true
        (Config.model_of_name m.Config.model_name == m))
    Config.all_models;
  Alcotest.check_raises "unknown model"
    (Invalid_argument "Config.model_of_name: unknown model \"floppy\"") (fun () ->
      ignore (Config.model_of_name "floppy"))

(* Thread 0's operation waits 10 and then 5 as a program; thread 1
   waits 15 from time 0.  Both wake at 15, thread 1 first: it queued
   there at time 0, thread 0 only at 10.  A summed wait would queue
   thread 0 at 15 before thread 1 did.  The program's steps run at 10
   and 15 while thread 0 stays suspended, and the pair costs one
   resume: the scheduler settles the second wait itself. *)
let test_sched_program () =
  let s = Sched.create () in
  let log = ref [] and steps = ref [] and resumed = ref false in
  Sched.set_program s (fun id ->
      steps := (id, Sched.now s, !resumed) :: !steps;
      if List.length !steps = 1 then 5 else -1);
  ignore
    (Sched.spawn s (fun () ->
         Sched.suspend s 10;
         resumed := true;
         log := (0, Sched.now s) :: !log));
  ignore
    (Sched.spawn s (fun () ->
         Sched.wait s 15;
         log := (1, Sched.now s) :: !log));
  Sched.run s;
  Alcotest.(check (list (triple int int bool)))
    "steps at 10 and 15, thread 0 suspended" [ (0, 10, false); (0, 15, false) ] (List.rev !steps);
  Alcotest.(check (list (pair int int))) "FIFO at 15" [ (1, 15); (0, 15) ] (List.rev !log);
  Helpers.check_int "three switches, as with two plain waits" 3 (Sched.context_switches s);
  Helpers.check_int "one settled without a resume" 1 (Sched.settled_waits s);
  (* A crash due before the program ends raises from [suspend]: after
     the first step when it falls between the two waits, before any
     step when it falls inside the first. *)
  let crashed_in ~crash_at =
    let s = Sched.create () in
    let steps = ref 0 and where = ref "none" in
    Sched.set_program s (fun _ ->
        incr steps;
        if !steps = 1 then 5 else -1);
    ignore
      (Sched.spawn s (fun () ->
           try
             where := "program";
             Sched.suspend s 10;
             where := "none"
           with Machine.Crashed -> ()));
    ignore (Sched.spawn s (fun () -> Sched.wait s 1));
    Sched.run ~crash_at s;
    (!where, !steps)
  in
  Alcotest.(check (pair string int)) "crash between the waits" ("program", 1) (crashed_in ~crash_at:12);
  Alcotest.(check (pair string int)) "crash inside the first wait" ("program", 0)
    (crashed_in ~crash_at:8);
  Alcotest.(check (pair string int)) "no crash" ("none", 2) (crashed_in ~crash_at:20)

(* Inlining keeps [assert]: a negative wait inside a run still fails. *)
let test_sched_wait_checks_delay () =
  let s = Sched.create () in
  let raised = ref false in
  ignore
    (Sched.spawn s (fun () ->
         raised := match Sched.wait s (-1) with () -> false | exception Assert_failure _ -> true));
  Sched.run s;
  Helpers.check_bool "wait (-1) raises Assert_failure" true !raised

(* The per-word fast paths allocate nothing: untimed machine operations
   on a cache hit, the scheduler's inline advance, and timed hits
   inside a run. *)
let test_machine_untimed_alloc_free () =
  let _, m = Helpers.sim_machine () in
  Helpers.check_alloc_free "untimed load/store/meta_*"
    (Helpers.minor_words_per_iter (fun i ->
         m.Machine.store 64 i;
         m.Machine.meta_set 6 i;
         ignore (m.Machine.meta_fetch_add 6 1 : int);
         let v = m.Machine.load 64 + m.Machine.meta_get 5 in
         ignore (m.Machine.meta_cas 5 v (v + 1) : bool)))

let test_sched_wait_alloc_free () =
  let s = Sched.create () in
  let words = ref nan in
  ignore (Sched.spawn s (fun () -> words := Helpers.minor_words_per_iter (fun _ -> Sched.wait s 1)));
  Sched.run s;
  Helpers.check_int "every wait advanced inline" 20_000 (Sched.inline_advances s);
  Helpers.check_alloc_free "Sched.wait inline path" !words

let test_sim_timed_hit_alloc_free () =
  let sim, m = Helpers.sim_machine () in
  let words = ref nan and out = Array.make 2 0 in
  ignore
    (Sim.spawn sim (fun () ->
         words :=
           Helpers.minor_words_per_iter (fun i ->
               ignore (m.Machine.validated_load 70 0 64 out : bool);
               m.Machine.store 64 (i + m.Machine.load 64 + m.Machine.meta_get 5 + out.(1)))));
  Sim.run sim;
  Helpers.check_alloc_free "timed hit load/store/meta_get/validated_load" !words

(* Thread 1 pauses 1 ns at a time, so each of the validated load's
   three waits (metadata read, cache-missing load, re-check) would
   suspend thread 0.  The first suspends it with the rest of the read
   as its program, the scheduler serves the other two without resuming
   it, and it resumes once, for the re-check; every count but the
   settled waits is that of the plain operations.  Thread 1 stores to the
   loaded word while the load is in flight, without touching the orec:
   the validated load returns the value at issue, the plain load the
   one at completion.  With [change_orec], thread 1 bumps the orec
   instead, and the re-check fails.  [orec] is the orec word before
   the run. *)
let validated_run ?(change_orec = false) ?(orec = 0) facade =
  let sim, m = Helpers.sim_machine () in
  let m = facade m in
  m.Machine.meta_set 70 orec;
  let out = Array.make 2 (-1) and ok = ref false and finished_at = ref 0 in
  ignore
    (Sim.spawn sim (fun () ->
         ok := m.Machine.validated_load 70 0 4096 out;
         finished_at := Sim.now sim));
  ignore
    (Sim.spawn sim (fun () ->
         for i = 1 to 2_000 do
           m.Machine.pause 1;
           if i = 100 then
             if change_orec then m.Machine.meta_set 70 2 else m.Machine.store 4096 7
         done));
  Sim.run sim;
  let st = Sim.Stats.get sim in
  ( (!ok, out.(0), out.(1), !finished_at, Sim.Stats.fields st),
    (st.Sim.Stats.inline_advances, st.Sim.Stats.context_switches),
    st.Sim.Stats.settled_waits )

let test_validated_load_program () =
  let (ok, w, v, finished_at, fields), counts, settled = validated_run Fun.id in
  let (pok, pw, pv, pfinished_at, pfields), pcounts, psettled =
    validated_run Helpers.plain_facade
  in
  Helpers.check_bool "validated" true ok;
  Helpers.check_int "orec word" 0 w;
  Helpers.check_int "value at issue" 0 v;
  Helpers.check_int "plain load: value at completion" 7 pv;
  Helpers.check_bool "plain: validated" true (pok && pw = 0);
  Helpers.check_int "same finish time" pfinished_at finished_at;
  Helpers.check_bool "same machine counters" true (fields = pfields);
  Helpers.check_bool "same wait outcomes" true (counts = pcounts);
  Helpers.check_int "the load and the re-check settled" 2 settled;
  Helpers.check_int "none settled by plain operations" 0 psettled;
  let (ok, w, _, _, _), _, _ = validated_run ~change_orec:true Fun.id in
  Helpers.check_bool "a changed orec fails the re-check" false ok;
  Helpers.check_int "the first word read" 0 w;
  (* A locked orec word stops the read in its program: thread 1 is
     queued at time 0, so the orec read's wait suspends thread 0, and
     the step finds the word locked.  As in the inline path, the
     value slot stays untouched. *)
  let (ok, w, v, finished_at, fields), counts, settled = validated_run ~orec:3 Fun.id in
  let (_, _, _, pfinished_at, pfields), pcounts, _ = validated_run ~orec:3 Helpers.plain_facade in
  Helpers.check_bool "locked, suspended: not validated" false ok;
  Helpers.check_int "locked, suspended: the locked word" 3 w;
  Helpers.check_int "locked, suspended: value untouched" (-1) v;
  Helpers.check_int "locked, suspended: nothing settled" 0 settled;
  Helpers.check_int "locked, suspended: same finish time" pfinished_at finished_at;
  Helpers.check_bool "locked, suspended: same counters" true (fields = pfields && counts = pcounts);
  (* An orec word locked, or newer than the bound, stops the read
     before the load. *)
  let sim, m = Helpers.sim_machine () in
  let out = Array.make 2 (-1) in
  m.Machine.meta_set 70 3;
  Helpers.check_bool "locked" false (m.Machine.validated_load 70 10 64 out);
  Helpers.check_int "locked word" 3 out.(0);
  m.Machine.meta_set 70 12;
  Helpers.check_bool "newer than the bound" false (m.Machine.validated_load 70 10 64 out);
  Helpers.check_int "value untouched" (-1) out.(1);
  Helpers.check_int "no load made" 0 (Sim.Stats.get sim).Sim.Stats.loads

(* An sfence whose drain suspends its thread serves the fence's own
   cost as its program's step.  Thread 1 fills the WPQ with 32
   write-backs at time 0, so thread 0's sfence drains behind them; with
   thread 2 pausing 1 ns at a time, thread 0 still finishes at the
   instant it does without thread 2, and the fence cost is settled
   without a resume. *)
let test_sfence_program () =
  let run ~busy =
    let sim, m = Helpers.sim_machine () in
    let lines = Array.init 32 (fun i -> 4096 + (8 * i)) in
    Array.iter (fun a -> m.Machine.store a 1) lines;
    let done_at = ref 0 in
    ignore
      (Sim.spawn sim (fun () ->
           m.Machine.store 64 1;
           m.Machine.clwb 64;
           m.Machine.sfence ();
           done_at := Sim.now sim));
    ignore (Sim.spawn sim (fun () -> m.Machine.clwb_many lines 32));
    if busy then
      ignore
        (Sim.spawn sim (fun () ->
             while !done_at = 0 do
               m.Machine.pause 1
             done));
    Sim.run sim;
    let st = Sim.Stats.get sim in
    (!done_at, st.Sim.Stats.fence_wait_ns, st.Sim.Stats.settled_waits)
  in
  let alone, drained, _ = run ~busy:false and busy, _, settled = run ~busy:true in
  Helpers.check_bool "the sfence drained" true (drained > 0);
  Helpers.check_int "same finish as without thread 2" alone busy;
  Helpers.check_int "the fence cost settled" 1 settled

(* Thread 0 commits words one at a time (validated read of the
   previous word, store, clwb, sfence) while thread 1 keeps the queue
   busy with short pauses, so its waits suspend mid-read and
   mid-fence.  At every crash instant the machine kills thread 0 where
   the plain operations would have: the surviving images agree word
   for word, and so do the committed counts. *)
let test_program_crash_image () =
  let run facade crash_at =
    let cfg = Config.make ~heap_words:(1 lsl 16) Config.optane_adr in
    let sim = Sim.create cfg in
    let m = facade (Sim.machine sim) in
    let out = Array.make 2 0 and committed = ref 0 in
    ignore
      (Sim.spawn sim (fun () ->
           for k = 1 to 40 do
             let addr = 4096 + (64 * k) in
             if m.Machine.validated_load 70 0 (addr - 64) out then begin
               m.Machine.store addr (k + out.(1));
               m.Machine.clwb addr;
               m.Machine.sfence ();
               committed := k
             end
           done));
    ignore
      (Sim.spawn sim (fun () ->
           for _ = 1 to 4_000 do
             m.Machine.pause 3
           done));
    Sim.run ~crash_at sim;
    let image = Sim.reboot sim in
    let m' = Sim.machine image in
    let words = List.init 41 (fun k -> m'.Machine.raw_read (4096 + (64 * k))) in
    Sim.release image;
    (!committed, words)
  in
  let points = ref 0 in
  let crash_at = ref 1 in
  while !crash_at < 12_000 do
    let got = run Fun.id !crash_at and want = run Helpers.plain_facade !crash_at in
    if got <> want then
      Alcotest.failf "crash at %d: committed %d vs %d" !crash_at (fst got) (fst want);
    incr points;
    crash_at := !crash_at + 97
  done;
  Helpers.check_bool "crash points tried" true (!points > 100)

let test_trace_records_events () =
  let sim, m = Helpers.sim_machine () in
  let tr = Sim.enable_trace ~capacity:16 sim in
  ignore
    (Sim.spawn sim (fun () ->
         m.Machine.store 100 1;
         m.Machine.clwb 100;
         m.Machine.sfence ();
         ignore (m.Machine.load 100)));
  Sim.run sim;
  Helpers.check_int "four events" 4 (Trace.recorded tr);
  let kinds = List.map (fun e -> e.Trace.kind) (Trace.tail tr) in
  Alcotest.(check bool) "order preserved" true
    (kinds = [ Trace.Store 100; Trace.Clwb 100; Trace.Sfence; Trace.Load 100 ]);
  let timestamps = List.map (fun e -> e.Trace.at_ns) (Trace.tail tr) in
  Helpers.check_bool "timestamps nondecreasing" true
    (List.sort compare timestamps = timestamps)

let test_trace_ring_bounded () =
  let sim, m = Helpers.sim_machine () in
  let tr = Sim.enable_trace ~capacity:8 sim in
  ignore
    (Sim.spawn sim (fun () ->
         for i = 1 to 100 do
           m.Machine.store i i
         done));
  Sim.run sim;
  Helpers.check_int "all recorded" 100 (Trace.recorded tr);
  let tail = Trace.tail tr in
  Helpers.check_int "tail bounded" 8 (List.length tail);
  (match List.rev tail with
  | { Trace.kind = Trace.Store 100; _ } :: _ -> ()
  | _ -> Alcotest.fail "latest event retained");
  match Trace.find tr (fun e -> e.Trace.kind = Trace.Store 97) with
  | Some _ -> ()
  | None -> Alcotest.fail "recent event findable"

let test_trace_marks_crash () =
  let sim, m = Helpers.sim_machine () in
  let tr = Sim.enable_trace sim in
  ignore
    (Sim.spawn sim (fun () ->
         for _ = 1 to 1000 do
           m.Machine.pause 100
         done));
  Sim.run ~crash_at:5_000 sim;
  match Trace.find tr (fun e -> e.Trace.kind = Trace.Crash) with
  | Some _ -> ()
  | None -> Alcotest.fail "crash event recorded"

(* ---------- pending arena vs the old list semantics ---------- *)

(* Reference model: the pre-arena representation — a list of
   (apply_at, line, captured words) in insertion order, position
   standing in for the explicit sequence number the old record
   carried.  [apply] replays entries in (apply_at, seq) order, exactly
   the old [List.sort] on the partitioned list. *)
module Pending_ref = struct
  type entry = { r_apply_at : int; r_line : int; r_data : int array }

  let ordered entries =
    List.stable_sort (fun a b -> compare a.r_apply_at b.r_apply_at) entries

  let blit image ~stride e = Array.blit e.r_data 0 image (e.r_line * stride) (Array.length e.r_data)

  let apply ~cutoff ~stride entries image =
    List.iter
      (fun e -> if e.r_apply_at < cutoff then blit image ~stride e)
      (ordered entries)

  let settle ~now ~stride entries image =
    let done_, inflight = List.partition (fun e -> e.r_apply_at <= now) entries in
    List.iter (blit image ~stride) (ordered done_);
    inflight
end

let pending_stride = 4
let pending_lines = 8

(* The arena now captures from and applies to demand-paged images. *)
let pheap_of_array a =
  let p = Pheap.create ~words:(Array.length a) in
  Pheap.blit_of_array p 0 a 0 (Array.length a);
  p

let flat p =
  let a = Array.make (Pheap.words p) 0 in
  Pheap.blit_to_array p 0 a 0 (Pheap.words p);
  a

(* One differential step: 0 = add, 1 = settle, 2 = apply (compare crash
   images), 3 = remove_lines.  After every step the arena's insertion-
   order view must equal the reference list, and the two media images
   must agree word for word. *)
let pending_ops_gen =
  QCheck2.Gen.(
    list_size (int_range 1 120)
      (pair (int_range 0 3) (pair (int_range 0 100) (int_range 0 (pending_lines - 1)))))

let test_pending_differential =
  Helpers.qtest ~count:300 "pending: differential vs list model" pending_ops_gen (fun ops ->
      let t = Pending.create ~stride:pending_stride () in
      let model = ref [] in
      let image = Pheap.create ~words:(pending_lines * pending_stride) in
      let image' = Array.make (pending_lines * pending_stride) 0 in
      let stamp = ref 0 in
      let agree () =
        let view = Pending.to_list t in
        let ref_view =
          List.map (fun e -> (e.Pending_ref.r_apply_at, e.Pending_ref.r_line, e.Pending_ref.r_data)) !model
        in
        if view <> ref_view then QCheck2.Test.fail_report "arena view diverged from list model";
        if flat image <> image' then QCheck2.Test.fail_report "media image diverged";
        true
      in
      List.for_all
        (fun (tag, (time, line)) ->
          (match tag with
          | 0 ->
            incr stamp;
            let len = 1 + (!stamp mod pending_stride) in
            let src = Array.init pending_stride (fun k -> (!stamp * 16) + k) in
            Pending.add t ~apply_at:time ~line ~src:(pheap_of_array src) ~base:0 ~len;
            model :=
              !model
              @ [ { Pending_ref.r_apply_at = time; r_line = line; r_data = Array.sub src 0 len } ]
          | 1 ->
            Pending.settle t ~now:time image;
            model := Pending_ref.settle ~now:time ~stride:pending_stride !model image'
          | 2 ->
            (* Non-destructive crash-cut materialisation: replay onto
               copies, compare, leave both states untouched. *)
            let cut = Pheap.copy image and cut' = Array.copy image' in
            Pending.apply ~cutoff:time t cut;
            Pending_ref.apply ~cutoff:time ~stride:pending_stride !model cut';
            if flat cut <> cut' then QCheck2.Test.fail_report "crash-cut image diverged"
          | _ ->
            let keep = time mod pending_lines in
            Pending.remove_lines t (fun l -> l <> keep);
            model := List.filter (fun e -> e.Pending_ref.r_line = keep) !model);
          agree ())
        ops
      &&
      (* Drain completely: nothing may leak past a settle that covers
         every service time. *)
      (Pending.settle t ~now:max_int image;
       model := Pending_ref.settle ~now:max_int ~stride:pending_stride !model image';
       Pending.count t = 0 && !model = [] && agree ()))

(* Capacity boundary: filling to the initial capacity must not grow;
   one past it doubles, preserving order and payload across the copy;
   a full drain recycles slots without shrinking. *)
let test_pending_overflow_recycle () =
  let t = Pending.create ~stride:pending_stride () in
  let cap0 = Pending.capacity t in
  let entry i = (i, i mod pending_lines, Array.init pending_stride (fun k -> (i * 100) + k)) in
  for i = 0 to cap0 - 1 do
    let at, line, src = entry i in
    Pending.add t ~apply_at:at ~line ~src:(pheap_of_array src) ~base:0 ~len:pending_stride
  done;
  Helpers.check_int "full at initial capacity" cap0 (Pending.count t);
  Helpers.check_int "no premature growth" cap0 (Pending.capacity t);
  let at, line, src = entry cap0 in
  Pending.add t ~apply_at:at ~line ~src:(pheap_of_array src) ~base:0 ~len:pending_stride;
  Helpers.check_int "doubled on overflow" (2 * cap0) (Pending.capacity t);
  Helpers.check_int "all entries retained" (cap0 + 1) (Pending.count t);
  List.iteri
    (fun i (at, line, data) ->
      let at', line', data' = entry i in
      Helpers.check_int "apply_at preserved across grow" at' at;
      Helpers.check_int "line preserved across grow" line' line;
      Helpers.check_bool "payload preserved across grow" true (data = data'))
    (Pending.to_list t);
  let image = Pheap.create ~words:(pending_lines * pending_stride) in
  Pending.settle t ~now:max_int image;
  Helpers.check_int "drained" 0 (Pending.count t);
  Helpers.check_bool "drain leaves no residue" true (Pending.to_list t = []);
  Helpers.check_int "capacity retained after drain" (2 * cap0) (Pending.capacity t);
  (* Latest service time per line wins: entries replay in apply_at
     order, so line 0's image words come from its last capture. *)
  let last_for_line0 = cap0 - (cap0 mod pending_lines) in
  Helpers.check_int "image holds the final capture"
    (last_for_line0 * 100)
    (Pheap.get image 0);
  let at, line, src = entry 7777 in
  Pending.add t ~apply_at:at ~line ~src:(pheap_of_array src) ~base:0 ~len:pending_stride;
  Helpers.check_int "slots recycle after drain" 1 (Pending.count t);
  Helpers.check_int "recycling does not grow" (2 * cap0) (Pending.capacity t)

let suite =
  [
    Alcotest.test_case "sched: virtual-time order" `Quick test_sched_virtual_time_order;
    Alcotest.test_case "sched: FIFO ties" `Quick test_sched_fifo_ties;
    Alcotest.test_case "sched: crash kills threads" `Quick test_sched_crash_kills;
    Alcotest.test_case "sched: ops outside threads" `Quick test_sched_wait_outside_thread_noop;
    Alcotest.test_case "sched: crash bounds time" `Quick test_sched_crash_time_bound;
    test_sched_differential;
    test_sched_heap_reference;
    test_sched_heap_reference_crash;
    Alcotest.test_case "sched: escaped exception" `Quick test_sched_escaped_exception;
    Alcotest.test_case "sched: handoff keeps the stack flat" `Quick
      test_sched_handoff_stack_flat;
    Alcotest.test_case "server: sync queueing" `Quick test_server_sync_queueing;
    Alcotest.test_case "server: idle reset" `Quick test_server_sync_idle_resets;
    Alcotest.test_case "server: WPQ backpressure" `Quick test_server_async_backpressure;
    Alcotest.test_case "server: throughput bound" `Quick test_server_async_throughput_bound;
    Alcotest.test_case "cache: hit after install" `Quick test_cache_hit_after_install;
    Alcotest.test_case "cache: dirty eviction" `Quick test_cache_dirty_eviction;
    Alcotest.test_case "cache: LRU within set" `Quick test_cache_lru_within_set;
    Alcotest.test_case "cache: clwb retains line" `Quick test_cache_clwb_keeps_line;
    Alcotest.test_case "cache: dirty listing" `Quick test_cache_dirty_lines_listing;
    test_cache_differential;
    test_cache_differential_l3;
    Alcotest.test_case "sim: load/store roundtrip" `Quick test_sim_load_store_roundtrip;
    Alcotest.test_case "sim: NVM ~3x DRAM" `Quick test_sim_nvm_slower_than_dram;
    Alcotest.test_case "sim: ADR dearer than eADR" `Quick test_sim_clwb_fence_cost;
    Alcotest.test_case "sim: nofence in between" `Quick test_sim_nofence_between_adr_and_eadr;
    Alcotest.test_case "sim: ADR crash semantics" `Quick test_sim_crash_adr_loses_unflushed;
    Alcotest.test_case "sim: ADR clwb completion window" `Quick
      test_sim_adr_clwb_completion_window;
    Alcotest.test_case "sim: sfence closes the window" `Quick test_sim_adr_fence_closes_window;
    Alcotest.test_case "trace: crash points" `Quick test_trace_crash_points;
    Alcotest.test_case "sim: eADR crash semantics" `Quick test_sim_crash_eadr_keeps_cached;
    Alcotest.test_case "sim: DRAM crash semantics" `Quick test_sim_crash_dram_loses_everything;
    Alcotest.test_case "sim: PDRAM crash semantics" `Quick test_sim_pdram_persists_everything;
    Alcotest.test_case "sim: persist_all baseline" `Quick test_sim_persist_all_then_adr_crash;
    Alcotest.test_case "meta: facades of one sim share" `Quick test_meta_shared_per_sim;
    Alcotest.test_case "meta: release invalidates facades" `Quick
      test_meta_release_invalidates_facade;
    Alcotest.test_case "meta: recycled space reads zero" `Quick test_meta_recycled_zeroed;
    Alcotest.test_case "meta: live sims never share" `Quick test_meta_live_sims_disjoint;
    Alcotest.test_case "meta: reboot starts empty" `Quick test_meta_reboot_starts_empty;
    Alcotest.test_case "meta: fams and difftest runs release theirs" `Quick
      test_meta_released_by_runners;
    Alcotest.test_case "meta: 32-bit boundaries round-trip, wider values raise" `Quick
      test_meta_32bit_boundaries;
    Alcotest.test_case "meta: recycled scattered pages read zero" `Quick
      test_meta_recycled_scattered_pages;
    Alcotest.test_case "meta: machine after release raises" `Quick
      test_meta_machine_after_release;
    Alcotest.test_case "meta: with_ releases on return and on exception" `Quick
      test_meta_with_releases;
    Alcotest.test_case "meta: recycling survives an odd-sized sim" `Quick
      test_meta_recycled_after_odd_size;
    Alcotest.test_case "sim: stats populated" `Quick test_sim_stats_populated;
    Alcotest.test_case "sim: determinism" `Quick test_sim_deterministic;
    Alcotest.test_case "sim: exact ADR sequence" `Quick test_sim_exact_adr_sequence;
    Alcotest.test_case "sim: exact fence wait" `Quick test_sim_exact_fence_wait;
    Alcotest.test_case "sim: exact cache hit" `Quick test_sim_exact_cache_hit;
    Alcotest.test_case "config: model lookup" `Quick test_config_model_lookup;
    Alcotest.test_case "sched: a program runs while its thread stays suspended" `Quick
      test_sched_program;
    Alcotest.test_case "sched: wait checks its delay" `Quick test_sched_wait_checks_delay;
    Alcotest.test_case "sched: inline wait allocates nothing" `Quick test_sched_wait_alloc_free;
    Alcotest.test_case "machine: untimed hits allocate nothing" `Quick
      test_machine_untimed_alloc_free;
    Alcotest.test_case "sim: timed hits allocate nothing" `Quick test_sim_timed_hit_alloc_free;
    Alcotest.test_case "sim: a validated load's program matches the plain operations" `Quick
      test_validated_load_program;
    Alcotest.test_case "sim: a crash mid-program leaves the plain operations' image" `Quick
      test_program_crash_image;
    Alcotest.test_case "sim: an sfence's fence cost is its drain's program" `Quick
      test_sfence_program;
    Alcotest.test_case "trace: records events" `Quick test_trace_records_events;
    Alcotest.test_case "trace: ring bounded" `Quick test_trace_ring_bounded;
    Alcotest.test_case "trace: crash marker" `Quick test_trace_marks_crash;
    test_pending_differential;
    Alcotest.test_case "pending: overflow + recycle" `Quick test_pending_overflow_recycle;
  ]
