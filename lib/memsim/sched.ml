exception Crashed = Machine.Crashed

(* The effect carries no payload: the requested delay travels through
   [pending_ns] on the scheduler instead, so performing a wait
   allocates nothing beyond the continuation capture itself.  (A
   [Wait : int -> _ Effect.t] payload would cons a fresh two-word block
   on every suspension — measurable on the DES hot loop.) *)
type _ Effect.t += Wait : unit Effect.t

(* Thread status codes.  Ints, not a variant carrying the continuation:
   suspending then boxes nothing, and the run loop tests a status with
   one integer compare.  [programmed]: suspended, with the rest of its
   machine operation still to run as a program (see [hand_out]). *)
let not_started = 0
let suspended = 1
let in_progress = 2
let finished = 3
let programmed = 4

(* Placeholder for a continuation slot whose thread is not suspended
   ([suspended] or [programmed]): a continuation captured once at
   start-up and never resumed.  Only a suspended thread's slot is ever
   read, and a resumed continuation
   holds no stack, so resetting a slot to [parked] on resume is not
   needed for correctness.  It paces the minor GC: a slot that holds an
   old value puts the next suspension's store of a young continuation
   into the remembered set, and a full remembered set starts a minor
   collection before the minor heap is used up.  Without the resets,
   bench/perf's fig3-btree-adr ran faster but touched the whole minor
   heap, and its peak RSS rose 7.7 % (EXPERIMENTS.md, "Less state in
   the DES core"). *)
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
  mutable conts : (unit, unit) Effect.Deep.continuation array; (* valid iff [suspended] or [programmed] *)
  mutable bodies : (unit -> unit) array;
  mutable step : int -> int; (* runs a [programmed] thread's next step *)
  mutable count : int;
  mutable ready : int array; (* queued ids, next to run last *)
  mutable queued : int;
  mutable due : int; (* wake time of the next queued id; [max_int] = none *)
  mutable picked : int; (* wake time of the id last taken from [ready] *)
  mutable current : int; (* running thread id; -1 outside a thread *)
  mutable next : int; (* id the last Wait picked to run next; -1 = none *)
  mutable pending_ns : int; (* delay of the in-flight Wait perform *)
  mutable crash_limit : int; (* armed crash time; [max_int] = none *)
  mutable crashed : bool;
  mutable max_time : int;
  mutable started : bool;
  mutable advances : int; (* waits advanced inline *)
  mutable switches : int; (* waits that suspended their thread *)
  mutable settled : int; (* program waits the scheduler requeued without a resume *)
}

let initial_capacity = 8

(* The ready queue holds the ids of queued threads in
   [ready.(0 .. queued - 1)], sorted by wake time with the next thread
   to run last.  A thread's key is its own [times.(id)]: only the
   running thread's clock moves, so a queued thread's key never
   changes and the order stays exact without re-sorting.  FIFO among
   equal wake times comes from position: [insert] puts a thread behind
   every queued thread due no later than it.  The scan starts at the
   due end, where a thread that waited a few ns lands, so it is short.
   Every change of the queue updates [due], so the fast path of [wait]
   reads one field.  Indexing is unchecked: [ready] is as long as
   [times], and every id in it is spawned. *)

(* Insert [id] into the [n] ids of [ready.(0 .. n - 1)], leaving [n + 1]. *)
let insert t n id =
  let ready = t.ready and times = t.times in
  let time = Array.unsafe_get times id in
  let j = ref (n - 1) in
  while !j >= 0 && Array.unsafe_get times (Array.unsafe_get ready !j) <= time do
    Array.unsafe_set ready (!j + 1) (Array.unsafe_get ready !j);
    decr j
  done;
  Array.unsafe_set ready (!j + 1) id;
  t.due <- Array.unsafe_get times (Array.unsafe_get ready n)

(* Take the next thread, setting [picked] to its wake time; -1 when
   none is queued. *)
let pop t =
  let n = t.queued - 1 in
  if n < 0 then -1
  else begin
    t.picked <- t.due;
    t.queued <- n;
    t.due <-
      (if n = 0 then max_int else Array.unsafe_get t.times (Array.unsafe_get t.ready (n - 1)));
    Array.unsafe_get t.ready n
  end

let create () =
  {
    times = Array.make initial_capacity 0;
    status = Array.make initial_capacity finished;
    conts = Array.make initial_capacity parked;
    bodies = Array.make initial_capacity ignore;
    step = (fun _ -> -1);
    count = 0;
    ready = Array.make initial_capacity 0;
    queued = 0;
    due = max_int;
    picked = max_int;
    current = -1;
    next = -1;
    pending_ns = 0;
    crash_limit = max_int;
    crashed = false;
    max_time = 0;
    started = false;
    advances = 0;
    switches = 0;
    settled = 0;
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
    t.bodies <- grow t.bodies ignore;
    t.ready <- grow t.ready 0
  end;
  t.status.(id) <- not_started;
  t.bodies.(id) <- f;
  t.count <- id + 1;
  insert t t.queued id;
  t.queued <- t.queued + 1;
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
   no continuation, queue operation or handler dispatch.  A wake time
   at or past the armed crash limit must take the slow path so the
   crash machinery sees the event.  The fast path inlines into every
   caller; the suspension stays out of line in [switch], which sets the
   caller's status before the perform ([suspend] sets [programmed]). *)
let[@inline never] switch t ns =
  Array.unsafe_set t.status t.current suspended;
  t.pending_ns <- ns;
  Effect.perform Wait

let[@inline] wait t ns =
  assert (ns >= 0);
  let cur = t.current in
  if cur >= 0 then begin
    let nt = Array.unsafe_get t.times cur + ns in
    if nt < t.crash_limit && nt < t.due then begin
      Array.unsafe_set t.times cur nt;
      if nt > t.max_time then t.max_time <- nt;
      t.advances <- t.advances + 1
    end
    else switch t ns
  end

(* [wait]'s fast path alone.  Not [wait]'s building block: ocamlopt
   would materialize the answer and test it again on every wait. *)
let[@inline] advance t ns =
  assert (ns >= 0);
  let cur = t.current in
  if cur < 0 then true
  else begin
    let nt = Array.unsafe_get t.times cur + ns in
    if nt < t.crash_limit && nt < t.due then begin
      Array.unsafe_set t.times cur nt;
      if nt > t.max_time then t.max_time <- nt;
      t.advances <- t.advances + 1;
      true
    end
    else false
  end

(* The thread resumes only once [step] has run its program to the end. *)
let[@inline never] suspend t ns =
  assert (t.current >= 0);
  Array.unsafe_set t.status t.current programmed;
  t.pending_ns <- ns;
  Effect.perform Wait

let set_program t step = t.step <- step

(* From a step: its thread is plain [suspended] again, so the pick
   after the step's wait resumes it without another step. *)
let finish t = Array.unsafe_set t.status t.current suspended

let crashed t = t.crashed

let time_limit t = if t.crash_limit = max_int then None else Some t.crash_limit

let running t = t.current >= 0

let inline_advances t = t.advances

let context_switches t = t.switches

let settled_waits t = t.settled

(* Queue [id], due at [time], and take the thread to run next: [id]
   itself when it is due strictly first, else the queue's last, whose
   slot the insertion scan starts from.  [picked] becomes the taken
   thread's wake time. *)
let[@inline] requeue t id time =
  if t.queued = 0 || time < t.due then begin
    t.picked <- time;
    id
  end
  else begin
    let n = t.queued - 1 in
    let next = Array.unsafe_get t.ready n in
    t.picked <- t.due;
    insert t n id;
    next
  end

(* [id] was just taken from the queue at [picked], its wake time.
   When it is [programmed], run its program here, step by step at its
   own clock, as the resumed thread would have run the same code: each
   step's wait advances inline when the thread is still strictly
   first, and otherwise requeues it and hands out the next thread
   instead.  A program that ends leaves the thread [suspended], for
   the caller to resume.  Never once the crash is due: the kill then
   finds the thread suspended where the plain sequence would have. *)
let rec hand_out t id =
  if Array.unsafe_get t.status id <> programmed || t.crashed || t.picked >= t.crash_limit then id
  else begin
    let cur = t.current in
    t.current <- id;
    let ns = t.step id in
    t.current <- cur;
    if ns < 0 then begin
      Array.unsafe_set t.status id suspended;
      id
    end
    else begin
      let time = Array.unsafe_get t.times id + ns in
      Array.unsafe_set t.times id time;
      if time > t.max_time then t.max_time <- time;
      if time < t.crash_limit && time < t.due then begin
        t.advances <- t.advances + 1;
        t.picked <- time;
        hand_out t id
      end
      else begin
        t.switches <- t.switches + 1;
        t.settled <- t.settled + 1;
        hand_out t (requeue t id time)
      end
    end
  end

(* The id of the thread to run next: the one the last Wait already
   chose, else the queue's next, with any rest handed out.  [picked]
   is its wake time either way. *)
let take_next t =
  let id = t.next in
  if id >= 0 then begin
    t.next <- -1;
    id
  end
  else
    let id = pop t in
    if id >= 0 then hand_out t id else id

let kill t id =
  let status = t.status.(id) in
  if status = suspended || status = programmed then begin
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
  (* One context switch: park the caller, pick its successor
     ([requeue], then [hand_out] of any program) and, when that
     successor is a suspended thread due before any crash,
     resume it right here.  The resume is a tail call, so the
     handler's frame is gone before the successor runs and the stack
     stays flat however many switches chain.  Anything else (a thread
     to start, the crash kill) goes back to the run loop below through
     [t.next].  The Wait arm is allocated once here, not per perform:
     [effc] returns the same [Some on_wait] every time.  The cast is
     safe because [Wait : unit Effect.t] fixes [a = unit].  Like the
     fast path it indexes unchecked: [current] and every id in [ready]
     are spawned ids. *)
  let on_wait (k : (unit, unit) Effect.Deep.continuation) =
    let id = t.current in
    let time = Array.unsafe_get t.times id + t.pending_ns in
    Array.unsafe_set t.times id time;
    t.switches <- t.switches + 1;
    (* Not [max]: on ints that calls the polymorphic [Stdlib.max]. *)
    if time > t.max_time then t.max_time <- time;
    Array.unsafe_set t.conts id k;
    let next = hand_out t (requeue t id time) in
    if
      Array.unsafe_get t.status next = suspended
      && (not t.crashed)
      && t.picked < t.crash_limit
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
    else if t.picked >= t.crash_limit then begin
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
