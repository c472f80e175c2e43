(** Deterministic discrete-event scheduler for simulated threads.

    Each simulated thread is a direct-style OCaml computation that
    performs a [Wait] effect whenever a modeled operation costs time.
    The scheduler always resumes the thread with the smallest virtual
    clock (FIFO among ties), so all shared-state mutations occur in
    global virtual-time order and every run is a deterministic function
    of the configuration and RNG seeds.

    Power-failure injection: when a crash time is armed, any thread
    whose next event would occur at or after that instant is
    discontinued with the {!Crashed} exception instead of being
    resumed.  Threads must let [Crashed] propagate (cleanup via
    [Fun.protect] is fine).

    Cost: a {!wait} whose new wake time is strictly below every queued
    wake time (and the crash time) advances the clock inline and
    allocates nothing: it compares against one cached field, the
    earliest queued wake time.  Any other wait is one context switch:
    the runtime's continuation capture (its only allocation), a
    requeue-and-pick on the ready queue, and, when the pick is a
    suspended thread due before the crash time, a resume of that
    thread straight from the effect handler, without first returning
    to the run loop.  That resume is a tail call, so the stack stays
    flat however many switches chain.  {!inline_advances} and
    {!context_switches} count the two paths.

    A thread that waits twice in a row often switches twice and is
    resumed in between only to suspend again.  {!post} settles such a
    pair in one pass: where the first wait would suspend, it moves the
    clock and counts the switch but leaves the thread running, {e owed}.
    The thread's next {!wait} (or {!settle}) suspends it at the posted
    time and stores that wait as the thread's rest.  When the queue
    reaches the thread, the scheduler applies the rest exactly as the
    resumed thread would have: it advances inline and resumes the
    thread when it is still strictly first, and otherwise requeues it
    at the later time and takes the next thread, so one capture and one
    resume are saved.  The two waits are not summed.  A thread queued
    at the later time while the first wait ran must stay ahead of this
    one (FIFO among ties), and a summed wait, queued at the first
    moment, would put it behind.  {!settled_waits} counts the rests
    requeued without a resume, so the resumes are
    [context_switches - settled_waits].

    The ready queue is an array of thread ids sorted by wake time,
    next to run last.  The pick takes the last id, and the caller is
    inserted by a scan from that due end, O(queued) at worst; a thread
    that waited a few ns lands near the end, so the scan is short.
    The order is exact because only the running thread's clock moves.
    A resumed thread's continuation slot is reset to a placeholder:
    not for correctness, but because each reset makes the next
    suspension's store enter the remembered set, which starts minor
    collections before the minor heap is used up and keeps peak RSS
    down. *)

type t

(** The crash exception is {!Machine.Crashed}, so that machine-agnostic
    code can match it without depending on this library. *)

val create : unit -> t

val spawn : t -> (unit -> unit) -> int
(** Register a thread; returns its dense id (0, 1, ...).  Must be
    called before {!run}. *)

val run : ?crash_at:int -> t -> unit
(** Execute until every thread finishes, or until virtual time reaches
    [crash_at], in which case all remaining threads are killed and
    {!crashed} becomes true.  May be called once per scheduler.

    A switch between two suspended threads resumes the successor from
    the effect handler; the loop inside [run] only starts threads,
    resumes the successor of a finished thread, and carries out the
    crash kill.  Once the crash is detected only that loop resumes
    threads, and each resume delivers {!Crashed}.  An exception
    escaping a thread escapes [run]; the thread is then finished and
    {!running} is false. *)

val wait : t -> int -> unit
(** Advance the calling thread's virtual clock by [ns >= 0].  Must be
    called from within a simulated thread. *)

val post : t -> int -> unit
(** [wait], except that where the thread would be suspended it keeps
    running owed, with its clock already advanced.  Until its next
    [wait] or [settle] the caller must touch nothing another thread can
    observe: the other threads have not yet run up to its clock.  A
    wait due at or past the armed crash time is a plain [wait]. *)

val settle : t -> unit
(** Serve an owed wait: suspend the calling thread until every thread
    due before its clock has run.  A no-op unless the caller is owed. *)

val now : t -> int
(** Virtual clock of the calling thread; after [run] returns, the
    maximum virtual time reached. *)

val tid : t -> int
(** Id of the calling thread. *)

val crashed : t -> bool

val running : t -> bool
(** Whether a simulated thread is currently executing — false during
    untimed setup/recovery phases outside [run]. *)

val inline_advances : t -> int
(** Waits so far that advanced the clock inline, without a switch. *)

val context_switches : t -> int
(** Waits so far that suspended their thread: one context switch
    each, a posted wait included. *)

val settled_waits : t -> int
(** Waits so far that the scheduler applied for an owed thread and
    that requeued it without resuming it. *)

val time_limit : t -> int option
(** The armed crash time, if any — lets long-running loops bail out
    early instead of spinning to the horizon. *)
