exception Crashed = Machine.Crashed

(* The effect carries no payload: the requested delay travels through
   [pending_ns] on the scheduler instead, so performing a wait
   allocates nothing beyond the continuation capture itself.  (A
   [Wait : int -> _ Effect.t] payload would cons a fresh two-word block
   on every suspension — measurable on the DES hot loop.) *)
type _ Effect.t += Wait : unit Effect.t

(* Thread status codes.  Ints, not a variant carrying the continuation:
   suspending then boxes nothing, and the run loop tests a status with
   one integer compare. *)
let not_started = 0
let suspended = 1
let in_progress = 2
let finished = 3

(* Placeholder for a continuation slot whose thread is not [suspended]:
   a continuation captured once at start-up and never resumed.  Only a
   [suspended] thread's slot is ever read. *)
type _ Effect.t += Park : unit Effect.t

let parked : (unit, unit) Effect.Deep.continuation =
  let slot : (unit, unit) Effect.Deep.continuation option ref = ref None in
  Effect.Deep.match_with Effect.perform Park
    {
      Effect.Deep.retc = Fun.id;
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Park -> Some (fun (k : (a, unit) Effect.Deep.continuation) -> slot := Some k)
          | _ -> None);
    };
  match !slot with Some k -> k | None -> assert false

(* Per-thread state lives in parallel arrays indexed by thread id, not
   in a record per thread: the fast path reads and bumps a clock with no
   pointer chase, and a suspension stores its continuation into an
   array [create] allocated up front.  Usually that array is already
   promoted when threads start, so the minor GC paces itself on
   suspensions from the first one (a young per-thread record would
   leave the first minor-heap cycle unbounded, which shows up as peak
   RSS on short runs). *)
type t = {
  mutable times : int array; (* virtual clock *)
  mutable status : int array;
  mutable conts : (unit, unit) Effect.Deep.continuation array; (* valid iff [suspended] *)
  mutable bodies : (unit -> unit) array;
  mutable count : int;
  ready : Repro_util.Int_heap.t; (* key = wake time, payload = thread id *)
  mutable current : int; (* running thread id; -1 outside a thread *)
  mutable next : int; (* id the last Wait picked to run next; -1 = none *)
  mutable pending_ns : int; (* delay of the in-flight Wait perform *)
  mutable crash_limit : int; (* armed crash time; [max_int] = none *)
  mutable crashed : bool;
  mutable max_time : int;
  mutable started : bool;
  mutable advances : int; (* waits advanced inline *)
  mutable switches : int; (* waits that suspended their thread *)
}

let initial_capacity = 8

let create () =
  {
    times = Array.make initial_capacity 0;
    status = Array.make initial_capacity finished;
    conts = Array.make initial_capacity parked;
    bodies = Array.make initial_capacity ignore;
    count = 0;
    ready = Repro_util.Int_heap.create ();
    current = -1;
    next = -1;
    pending_ns = 0;
    crash_limit = max_int;
    crashed = false;
    max_time = 0;
    started = false;
    advances = 0;
    switches = 0;
  }

let spawn t f =
  if t.started then invalid_arg "Sched.spawn: scheduler already running";
  let id = t.count in
  if id = Array.length t.times then begin
    let grow a fill =
      let bigger = Array.make (2 * id) fill in
      Array.blit a 0 bigger 0 id;
      bigger
    in
    t.times <- grow t.times 0;
    t.status <- grow t.status finished;
    t.conts <- grow t.conts parked;
    t.bodies <- grow t.bodies ignore
  end;
  t.status.(id) <- not_started;
  t.bodies.(id) <- f;
  t.count <- id + 1;
  Repro_util.Int_heap.push t.ready ~key:0 id;
  id

(* [now] and the fast path of [wait] run on every machine operation, so
   they index [times] unchecked: [current] is -1 or a spawned id, and
   every spawned id is below the arrays' length. *)
let[@inline] now t = if t.current >= 0 then Array.unsafe_get t.times t.current else t.max_time

(* Machine operations may also run outside [run] (untimed setup and
   recovery phases): time simply does not advance there, and thread id
   defaults to 0. *)
let[@inline] tid t = if t.current >= 0 then t.current else 0

(* Fast path: when the current thread, after advancing by [ns], is
   still strictly ahead of every pending wake-up, suspending it would
   only have the scheduler pick it right back — no other thread can
   interpose (FIFO tie-break means an *equal* wake time would run
   first, hence the strict [<]).  Advancing the clock inline is then
   observably identical to the full perform/reschedule cycle and costs
   no continuation, heap operation or handler dispatch.  A wake time at
   or past the armed crash limit must take the slow path so the crash
   machinery sees the event.  The fast path inlines into every caller;
   the suspension stays out of line in [switch]. *)
let[@inline never] switch t ns =
  t.pending_ns <- ns;
  Effect.perform Wait

let[@inline] wait t ns =
  assert (ns >= 0);
  let cur = t.current in
  if cur >= 0 then begin
    let nt = Array.unsafe_get t.times cur + ns in
    if nt < t.crash_limit && nt < Repro_util.Int_heap.min_key t.ready then begin
      Array.unsafe_set t.times cur nt;
      if nt > t.max_time then t.max_time <- nt;
      t.advances <- t.advances + 1
    end
    else switch t ns
  end

let wait_until t target =
  if t.current >= 0 then begin
    let time = t.times.(t.current) in
    if target > time then wait t (target - time)
  end

let crashed t = t.crashed

let time_limit t = if t.crash_limit = max_int then None else Some t.crash_limit

let running t = t.current >= 0

let inline_advances t = t.advances

let context_switches t = t.switches

(* The id of the thread to run next: the one the last Wait already
   chose, else the heap minimum.  [Int_heap.last_key] is its wake time
   either way. *)
let take_next t =
  let id = t.next in
  if id >= 0 then begin
    t.next <- -1;
    id
  end
  else Repro_util.Int_heap.pop t.ready

let kill t id =
  if t.status.(id) = suspended then begin
    let k = t.conts.(id) in
    t.conts.(id) <- parked;
    t.status.(id) <- finished;
    t.current <- id;
    (* The handler's exnc re-raises, so an uncaught Crashed surfaces
       here; a thread that swallows it instead terminates via retc. *)
    (try Effect.Deep.discontinue k Crashed with Crashed -> ());
    t.current <- -1
  end
  else t.status.(id) <- finished

let run ?crash_at t =
  if t.started then invalid_arg "Sched.run: scheduler already ran";
  t.started <- true;
  (match crash_at with Some c -> t.crash_limit <- c | None -> ());
  (* One context switch: park the caller, pick its successor with a
     single fused heap operation and, when that successor is a
     suspended thread due before any crash, resume it right here.  The
     resume is a tail call, so the handler's frame is gone before the
     successor runs and the stack stays flat however many switches
     chain.  Anything else (a thread to start, the crash kill) goes
     back to the run loop below through [t.next].  The Wait arm is
     allocated once here, not per perform: [effc] returns the same
     [Some on_wait] every time.  The cast is safe because
     [Wait : unit Effect.t] fixes [a = unit].  Like the fast path it
     indexes unchecked: [current] and every id in [ready] are spawned
     ids. *)
  let on_wait (k : (unit, unit) Effect.Deep.continuation) =
    let id = t.current in
    let time = Array.unsafe_get t.times id + t.pending_ns in
    Array.unsafe_set t.times id time;
    Array.unsafe_set t.status id suspended;
    Array.unsafe_set t.conts id k;
    t.switches <- t.switches + 1;
    (* Not [max]: on ints that calls the polymorphic [Stdlib.max]. *)
    if time > t.max_time then t.max_time <- time;
    let next = Repro_util.Int_heap.push_pop t.ready ~key:time id in
    if
      Array.unsafe_get t.status next = suspended
      && (not t.crashed)
      && Repro_util.Int_heap.last_key t.ready < t.crash_limit
    then begin
      t.current <- next;
      Array.unsafe_set t.status next in_progress;
      let k = Array.unsafe_get t.conts next in
      Array.unsafe_set t.conts next parked;
      Effect.Deep.continue k ()
    end
    else t.next <- next
  in
  let some_on_wait = Some on_wait in
  let handler =
    {
      Effect.Deep.retc =
        (fun () ->
          let id = t.current in
          t.status.(id) <- finished;
          if t.times.(id) > t.max_time then t.max_time <- t.times.(id));
      (* An exception escaping a thread ends it, and then [run]: leave
         no thread current, so [running] is false and a later [wait]
         is the untimed no-op again. *)
      exnc =
        (fun exn ->
          t.status.(t.current) <- finished;
          t.current <- -1;
          raise exn);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Wait -> (some_on_wait : ((a, unit) Effect.Deep.continuation -> unit) option)
          | _ -> None);
    }
  in
  (* The loop regains control only when a thread finishes, when a Wait
     picks a thread that has not started yet, and at the crash: it
     starts threads, resumes the successor of a finished one, and
     kills.  Suspended-to-suspended switches never come back here. *)
  let id = ref (take_next t) in
  while !id >= 0 do
    let status = t.status.(!id) in
    if status = finished then id := take_next t
    else if Repro_util.Int_heap.last_key t.ready >= t.crash_limit then begin
      t.crashed <- true;
      kill t !id;
      (* Power is gone: kill everything else too.  A killed thread that
         waits in its cleanup is re-queued, and killed again here. *)
      let other = ref (take_next t) in
      while !other >= 0 do
        kill t !other;
        other := take_next t
      done;
      id := -1
    end
    else begin
      t.current <- !id;
      t.status.(!id) <- in_progress;
      if status = not_started then Effect.Deep.match_with t.bodies.(!id) () handler
      else begin
        assert (status = suspended);
        let k = t.conts.(!id) in
        t.conts.(!id) <- parked;
        Effect.Deep.continue k ()
      end;
      t.current <- -1;
      id := take_next t
    end
  done;
  if t.crashed && t.crash_limit < t.max_time then t.max_time <- t.crash_limit
