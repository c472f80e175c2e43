(** Ready-made crash-test scenarios, judged by durable linearizability.

    Every PTM scenario comes from one private constructor: a {!Dlin}
    spec, a population phase and a per-seed body.  Each worker wraps
    every logical operation in [Dlin.History.run] against the machine's
    virtual clock.  After recovery (or a crash-free run) the instance's
    [oracle] extracts the recovered abstract state and asks
    {!Dlin.check} for a legal durable linearization explaining it.  A failure carries a replayable JSONL
    counterexample (the recorded history plus the recovered state),
    written as [dlin.jsonl] into the failure telemetry directory.
    Recovered data no abstract state can hold (a torn payload, a
    non-numeric marker, a broken tree) fails the extraction with the
    same dump.

    dlin is the only judge wherever it can express the property.  An
    instance's [validate] holds only what it cannot: the buffered lag
    budget of the MOD scenarios and allocator accounting in
    {!alloc_churn}; everywhere else it is a no-op.

    - {!bank}: transfers between accounts plus per-thread
      operation-sequence cells; the dlin responses are the two account
      values each transfer read, so a lost or half-applied transfer has
      no explaining linearization;
    - {!counters}: every transaction rewrites all slots, so recovered
      slots must be equal (atomicity) and the single abstract value
      must be explained by an increment order consistent with the
      returned new-values;
    - {!btree}: B+Tree structural invariants, then the recovered key
      map judged by the same spec as the MOD structures;
    - {!alloc_churn}: each thread acquires stamped, signature-filled
      blocks into its own slots of a persistent directory or releases
      them, and the recovered stamp-per-slot vector must match a
      durable prefix; the validate cross-checks {!Pmem.Check}'s
      live-block count against the committed blocks;
    - {!kv_batch}: the KV service's coalesced write path — each thread
      commits batches of sets plus its batch-marker key in one
      transaction, so a crash mid-batch must leave all of the batch or
      none, with the marker naming the durable prefix;
    - {!kv_xshard}: two {!Kvserve.Store}s standing in for two shards —
      every operation commits to A then B in separate transactions, so
      the [B <= A <= B+1] marker bound is just "durable sets are
      per-thread prefixes";
    - {!kv_incr}: a single shared counter bumped through
      [Kvserve.Store.incr]; the returned new-values make the dlin
      search an exactly-once oracle.

    All scenarios derive their randomness from the instance seed, so a
    (scenario, seed) pair fully determines the workload.

    {!bank} and {!btree} take [?coalesce] (default [true]): [false]
    runs the PTM on the naive per-entry flush/fence path instead of the
    batched commit pipeline, and appends ["-naive"] to the scenario
    name so replay specs round-trip through {!find}.

    A replay line carries only the scenario name, so a scenario built
    with non-default sizes (bench/perf's [bank ~threads ~ops]) cannot
    be replayed. *)

val bank : ?threads:int -> ?ops:int -> ?coalesce:bool -> unit -> Engine.scenario

val counters : unit -> Engine.scenario

val btree : ?coalesce:bool -> unit -> Engine.scenario

val mod_btree : ?threads:int -> ?ops:int -> unit -> Engine.scenario
(** {!Pstructs.Mod_bptree} under a deterministic per-thread
    insert/remove script, swept under [Mod] and [Redo] (the other
    scenarios: [Redo] and [Undo], or [Htm] on HTM-commit).  The oracle
    runs {!Dlin.check} with [`Buffered] durability after a crash under
    the [Mod] algorithm (the
    root swap's flush is unfenced, so a committed suffix may be lost)
    and strict durability otherwise, crash-free runs included; the
    validate bounds the committed-but-lost ops of a buffered cut by the
    WPQ lag. *)

val mod_hash : unit -> Engine.scenario
(** {!Pstructs.Mod_phashtable} under the same script, oracle and
    validate as {!mod_btree}. *)

val alloc_churn : unit -> Engine.scenario

val kv_batch : unit -> Engine.scenario

val kv_xshard : unit -> Engine.scenario

val kv_incr : unit -> Engine.scenario

val fams_bank : ?ops:int -> unit -> Engine.fams_scenario
(** The msync twin of {!bank}, judged by the same transfer spec: a
    single mutator transfers between scattered one-word accounts in the
    FAMS working area (two pages, so line and page sweeps journal
    different unit sets) and calls [msync_atomic] every eighth
    operation.  The dlin oracle runs with [`Buffered] durability after
    a crash and strict durability on a crash-free run; the validate
    adds the one thing a buffered cut leaves open: the recovered op
    counter reaches the last {e completed} sync (FAMS's durability
    point). *)

val fams_all : unit -> Engine.fams_scenario list

val fams_find : string -> Engine.fams_scenario
(** Look up one of {!fams_all} by name.
    @raise Invalid_argument on unknown name. *)

val all : unit -> Engine.scenario list
(** The seven application scenarios with default sizes (coalescing on),
    plus naive-flush bank and btree variants — the two flush schedules
    reach "persistent" at different instants, so both are swept. *)

val find : string -> Engine.scenario
(** Look up one of {!all} by name.
    @raise Invalid_argument on unknown name. *)

val matrix : ?inject:Pstm.Ptm.inject -> unit -> Engine.cell list
(** The [@crashtest] matrix, in sweep order: every scenario of {!all}
    under six durability domains (ADR, eADR, PDRAM, PDRAM-Lite,
    transient-cache, HTM-commit) and its algorithm columns, then every
    FAMS scenario under the five domains that need no hardware
    transaction and both granularities.  [inject] arms every PTM cell
    and leaves the FAMS cells out. *)

val replay : string -> (Engine.cell * int * int, string) result
(** Resolve a ["scenario:model:alg:seed:crash_at[:inject]"] replay
    line into [(cell, seed, crash_at)], or a usage message.  [alg]
    picks the runtime (a PTM algorithm, or ["fams-line"] /
    ["fams-page"]), and the inject must be one of that runtime's. *)
