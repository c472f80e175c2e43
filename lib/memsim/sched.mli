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

    A machine operation that waits more than once (a TL2 read's
    orec read, load and orec re-check; an sfence's drain and fence)
    would be resumed after each wait only to run a few accesses and
    suspend again.  Such an operation suspends its thread with a
    {e program} instead ({!suspend}): the rest of the operation, as
    steps that each run some accesses and return the wait before the
    next step.  Whenever the queue reaches a programmed thread, the
    scheduler runs its next step right there, at the thread's clock,
    exactly where the resumed thread would have run the same code
    ({!set_program}'s [step]); the step's wait advances inline while
    the thread is still strictly first, and otherwise requeues it at
    the later time and takes the next thread.  A step runs on past
    the waits {!advance} takes inline, so a program that never has to
    requeue is one step.  The thread is resumed once, when its program
    ends or, when a step {!finish}es it, once the wait that step
    returned is served: a last wait followed by no access costs no
    step of its own.  The waits are not summed: a thread
    queued at a later step's time while an earlier step ran must stay
    ahead of this one (FIFO among ties), and a summed wait, queued at
    the first moment, would put it behind.  {!settled_waits} counts
    the program waits requeued without a resume, so the resumes are
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

val advance : t -> int -> bool
(** [wait], when it advances the clock inline: [true] when it did (or
    outside [run], where time does not advance), [false] with nothing
    changed when the wait would suspend the calling thread. *)

val suspend : t -> int -> unit
(** [wait] as the first wait of the calling thread's program: the
    thread is suspended, the scheduler runs its program through
    {!set_program}'s [step], and the thread returns from [suspend]
    only once the program has ended, at the clock it ended at.
    Counted as a context switch even when the thread could have
    advanced inline, so callers try {!advance} first.  A crash due
    before the program ends raises {!Crashed} here. *)

val set_program : t -> (int -> int) -> unit
(** [set_program t step] installs the runner of every programmed
    thread's next step: [step id] runs the step of thread [id], with
    {!now} and {!tid} answering for [id], and returns the wait before
    its next step, or a negative number when the program ends.  A step
    may touch machine state and run on past waits that {!advance}
    takes inline, but must not call {!wait} or {!suspend}.  Call
    before {!run}; without it a program ends at its first pick. *)

val finish : t -> unit
(** Called from a step: the wait that step returns is the program's
    last, and the thread resumes once it is picked after that wait,
    without another step. *)

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
(** Waits so far that suspended their thread or requeued a programmed
    one: one context switch each. *)

val settled_waits : t -> int
(** Program waits so far that requeued their thread without resuming
    it; [inline_advances] also counts a program's waits that advanced
    inline. *)

val time_limit : t -> int option
(** The armed crash time, if any — lets long-running loops bail out
    early instead of spinning to the horizon. *)
