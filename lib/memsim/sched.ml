exception Crashed = Machine.Crashed

(* The effect carries no payload: the requested delay travels through
   [pending_ns] on the scheduler instead, so performing a wait
   allocates nothing beyond the continuation capture itself.  (A
   [Wait : int -> _ Effect.t] payload would cons a fresh two-word block
   on every suspension — measurable on the DES hot loop.) *)
type _ Effect.t += Wait : unit Effect.t

type state =
  | Not_started of (unit -> unit)
  | Suspended of (unit, unit) Effect.Deep.continuation
  | Running
  | Finished

type thread = {
  thread_id : int;
  mutable time : int;
  mutable state : state;
  self : thread option; (* pre-allocated [Some this] for [current] *)
}

type t = {
  mutable table : thread array; (* index = thread_id; padded with [dummy] *)
  mutable count : int;
  ready : Repro_util.Int_heap.t; (* key = wake time, payload = thread id *)
  mutable current : thread option;
  mutable pending_ns : int; (* delay of the in-flight Wait perform *)
  mutable crash_limit : int; (* armed crash time; [max_int] = none *)
  mutable crashed : bool;
  mutable max_time : int;
  mutable started : bool;
}

let rec dummy = { thread_id = -1; time = 0; state = Finished; self = Some dummy }

let create () =
  {
    table = [||];
    count = 0;
    ready = Repro_util.Int_heap.create ();
    current = None;
    pending_ns = 0;
    crash_limit = max_int;
    crashed = false;
    max_time = 0;
    started = false;
  }

let spawn t f =
  if t.started then invalid_arg "Sched.spawn: scheduler already running";
  let rec th = { thread_id = t.count; time = 0; state = Not_started f; self = Some th } in
  if t.count = Array.length t.table then begin
    let bigger = Array.make (max 8 (2 * (t.count + 1))) dummy in
    Array.blit t.table 0 bigger 0 t.count;
    t.table <- bigger
  end;
  t.table.(t.count) <- th;
  t.count <- t.count + 1;
  Repro_util.Int_heap.push t.ready ~key:0 th.thread_id;
  th.thread_id

let now t = match t.current with Some th -> th.time | None -> t.max_time

(* Machine operations may also run outside [run] (untimed setup and
   recovery phases): time simply does not advance there, and thread id
   defaults to 0. *)
let tid t = match t.current with Some th -> th.thread_id | None -> 0

(* Fast path: when the current thread, after advancing by [ns], is
   still strictly ahead of every pending wake-up, suspending it would
   only have the scheduler pop it right back — no other thread can
   interpose (FIFO tie-break means an *equal* wake time would run
   first, hence the strict [<]).  Advancing the clock inline is then
   observably identical to the full perform/reschedule cycle, and skips
   the continuation capture, the heap round-trip and the handler
   dispatch.  A wake time at or past the armed crash limit must take
   the slow path so the crash machinery sees the event. *)
let wait t ns =
  assert (ns >= 0);
  match t.current with
  | None -> ()
  | Some th ->
    let nt = th.time + ns in
    if nt < t.crash_limit && nt < Repro_util.Int_heap.min_key t.ready then begin
      th.time <- nt;
      if nt > t.max_time then t.max_time <- nt
    end
    else begin
      t.pending_ns <- ns;
      Effect.perform Wait
    end

let wait_until t target =
  match t.current with
  | None -> ()
  | Some th -> if target > th.time then wait t (target - th.time)

let crashed t = t.crashed

let time_limit t = if t.crash_limit = max_int then None else Some t.crash_limit

let running t = t.current <> None

let kill t th =
  match th.state with
  | Suspended k ->
    th.state <- Finished;
    t.current <- th.self;
    (* The handler's exnc re-raises, so an uncaught Crashed surfaces
       here; a thread that swallows it instead terminates via retc. *)
    (try Effect.Deep.discontinue k Crashed with Crashed -> ());
    t.current <- None
  | Not_started _ | Running | Finished -> th.state <- Finished

let run ?crash_at t =
  if t.started then invalid_arg "Sched.run: scheduler already ran";
  t.started <- true;
  (match crash_at with Some c -> t.crash_limit <- c | None -> ());
  (* The Wait arm of the handler is allocated once here, not per
     perform: [effc] returns the same [Some on_wait] every time.  The
     cast is safe because [Wait : unit Effect.t] fixes [a = unit]. *)
  let on_wait (k : (unit, unit) Effect.Deep.continuation) =
    let th = match t.current with Some th -> th | None -> assert false in
    th.time <- th.time + t.pending_ns;
    th.state <- Suspended k;
    (* Not [max]: on ints that calls the polymorphic [Stdlib.max]. *)
    if th.time > t.max_time then t.max_time <- th.time;
    Repro_util.Int_heap.push t.ready ~key:th.time th.thread_id
  in
  let some_on_wait = Some on_wait in
  let handler =
    {
      Effect.Deep.retc =
        (fun () ->
          match t.current with
          | None -> assert false
          | Some th ->
            th.state <- Finished;
            if th.time > t.max_time then t.max_time <- th.time);
      exnc = (fun exn -> raise exn);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Wait -> (some_on_wait : ((a, unit) Effect.Deep.continuation -> unit) option)
          | _ -> None);
    }
  in
  let continue_loop = ref true in
  while !continue_loop do
    let id = Repro_util.Int_heap.pop t.ready in
    if id < 0 then continue_loop := false
    else begin
      let th = t.table.(id) in
      if th.state <> Finished then begin
        let time = Repro_util.Int_heap.last_key t.ready in
        if time >= t.crash_limit then begin
          t.crashed <- true;
          kill t th;
          (* Power is gone: kill everything else too. *)
          let rec drain () =
            let other = Repro_util.Int_heap.pop t.ready in
            if other >= 0 then begin
              kill t t.table.(other);
              drain ()
            end
          in
          drain ();
          continue_loop := false
        end
        else begin
          t.current <- th.self;
          (match th.state with
          | Not_started f ->
            th.state <- Running;
            Effect.Deep.match_with f () handler
          | Suspended k ->
            th.state <- Running;
            Effect.Deep.continue k ()
          | Running | Finished -> assert false);
          t.current <- None
        end
      end
    end
  done;
  t.current <- None;
  if t.crashed && t.crash_limit < t.max_time then t.max_time <- t.crash_limit
