(** Bank-transfer microworkload (the classic crash-consistency kernel,
    and the telemetry reference workload).

    Each transaction reads two uniformly chosen accounts and moves a
    small amount between them: 2 reads + 2 writes, so under undo
    logging every transaction pays O(W)=2 per-write fence pairs while
    redo logging pays its O(1) commit-time fences — the fence-cost gap
    the phase profiler measures directly. *)

val accounts : int
val initial_balance : int

val total : Pstm.Ptm.t -> int
(** Transactional sum of all balances — equals
    [accounts * initial_balance] at every consistent point (transfers
    conserve money). *)

val spec : Driver.spec
