(** Bounded worker pool over OCaml domains.

    Fans a batch of independent tasks out across [jobs] domains
    (including the calling one) and reassembles the results in
    submission order, so a deterministic batch produces byte-identical
    output no matter how many workers ran it or how the OS scheduled
    them.  Tasks must not share mutable state: each experiment cell
    builds its own simulator, PTM and RNGs from an explicit seed.

    With [jobs = 1] (or a single task) everything runs inline in the
    calling domain — no domain is spawned, so the serial path is
    exactly the pre-pool behaviour. *)

val default_jobs : unit -> int
(** Number of workers used when [?jobs] is omitted:
    [Domain.recommended_domain_count ()], i.e. the cores available to
    this process. *)

val default_chunk : n:int -> jobs:int -> int
(** Batch size a worker claims from a batch of [n] tasks:
    [max 1 (n / (jobs * 4))], i.e. roughly four claims per worker —
    coarse enough to amortise the shared-counter traffic, fine enough
    to keep workers busy when cell costs are uneven. *)

val run : ?jobs:int -> (unit -> 'a) list -> 'a list
(** [run ~jobs tasks] executes every task and returns their results in
    submission order.  At most [max 1 jobs] tasks run concurrently
    (clamped to the task count; the calling domain counts as one
    worker).  Workers claim contiguous batches of {!default_chunk}
    tasks per round-trip on the shared counter instead of one task at a
    time; batching only changes which domain runs a task, never the
    submission-order reassembly.

    If a task raises, the exception of the lowest-indexed task that
    recorded a failure is re-raised in the caller (with its backtrace)
    after all started tasks finish; tasks not yet started are
    skipped. *)
