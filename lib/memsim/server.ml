type t = {
  service_ns : int;
  capacity : int;
  mutable next_free : int;
  (* In-flight completion times, ascending, as a flat circular buffer
     (bounded servers only; replaces a Queue.t whose push allocated a
     cons-like node per write-back). *)
  buf : int array;
  mutable head : int; (* index of the oldest entry *)
  mutable inflight : int;
  mutable requests : int;
  mutable stall_ns : int;
  (* Out-parameters of [enqueue_fast]; see the mli. *)
  mutable last_ready : int;
  mutable last_completion : int;
}

let create ~service_ns ~capacity =
  {
    service_ns;
    capacity;
    next_free = 0;
    buf = Array.make (max 1 capacity) 0;
    head = 0;
    inflight = 0;
    requests = 0;
    stall_ns = 0;
    last_ready = 0;
    last_completion = 0;
  }

let acquire_sync t ~now ~latency_ns =
  t.requests <- t.requests + 1;
  (* Int comparisons, not [max]: on ints that is a call to the
     polymorphic [Stdlib.max], once per memory event. *)
  let start = if now >= t.next_free then now else t.next_free in
  t.next_free <- start + t.service_ns;
  start + latency_ns

let[@inline] wrap t i = if i >= Array.length t.buf then i - Array.length t.buf else i

let[@inline] pop t =
  let c = t.buf.(t.head) in
  t.head <- wrap t (t.head + 1);
  t.inflight <- t.inflight - 1;
  c

let drop_completed t ~now =
  while t.inflight > 0 && t.buf.(t.head) <= now do
    ignore (pop t)
  done

let enqueue_fast t ~now =
  t.requests <- t.requests + 1;
  let ready = ref now in
  if t.capacity > 0 then begin
    drop_completed t ~now;
    (* Completions are FIFO: while full, wait for the oldest in-flight
       entry, which frees exactly one slot. *)
    while t.inflight >= t.capacity do
      let c = pop t in
      if c > !ready then ready := c
    done
  end;
  let start = if !ready >= t.next_free then !ready else t.next_free in
  let completion = start + t.service_ns in
  t.next_free <- completion;
  if t.capacity > 0 then begin
    t.buf.(wrap t (t.head + t.inflight)) <- completion;
    t.inflight <- t.inflight + 1
  end;
  t.stall_ns <- t.stall_ns + (!ready - now);
  t.last_ready <- !ready;
  t.last_completion <- completion

let last_ready t = t.last_ready
let last_completion t = t.last_completion

let reset t =
  t.next_free <- 0;
  t.head <- 0;
  t.inflight <- 0;
  t.requests <- 0;
  t.stall_ns <- 0;
  t.last_ready <- 0;
  t.last_completion <- 0

let inflight_at t ~now =
  let n = ref 0 in
  for k = 0 to t.inflight - 1 do
    if t.buf.(wrap t (t.head + k)) > now then incr n
  done;
  !n

let requests t = t.requests
let stall_ns t = t.stall_ns
