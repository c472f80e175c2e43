(** Crash-point exploration: systematic durable-linearizability
    checking.

    The engine turns the simulator's determinism into a correctness
    oracle.  For a given {!cell} — (scenario, durability model,
    algorithm column) — and seed it

    + runs the workload once to completion, recording the final virtual
      time and an event trace;
    + enumerates candidate crash instants from the trace (just before
      and just after every store, clwb, sfence and publish — the only
      places persistent state can change) plus a uniform grid;
    + for each chosen instant re-runs the {e identical} workload with
      [Sim.run ~crash_at], then [Sim.reboot]s, checks region integrity
      with {!Pmem.Check.run} both before and after recovery,
      and judges the recovered state with the scenario's
      durable-linearizability oracle ({!Dlin});
    + on a failure, automatically shrinks to a smaller failing crash
      time and reports a one-command replay line.

    Sampling is driven by a seeded RNG, so every run — including which
    crash points were probed — is reproducible from the printed seed.
    The engine reads no environment: callers pass every knob (the
    [@crashtest] gate maps its [CRASHTEST_*] variables onto these
    arguments). *)

(** A failed oracle or validator check.  [counterexample], when present,
    is a replayable JSONL dump (see {!Dlin.counterexample}) written as
    [dlin.jsonl] into the failure's telemetry directory. *)
type oracle_failure = { fail_reason : string; counterexample : string option }

(** One run of a scenario: the workers, which record their operation
    history, and the checks run on the recovered state.  The dlin
    [oracle] judges; [validate] holds only what dlin cannot express
    (a buffered lag budget, allocator accounting) and is a no-op for
    most scenarios. *)
type instance = {
  worker : tid:int -> Pstm.Ptm.t -> unit;
      (** body of simulated thread [tid]; wraps each logical operation
          in [Dlin.History.run] *)
  validate : crashed:bool -> Memsim.Sim.t -> Pstm.Ptm.t -> (unit, string) result;
      (** called untimed on the recovered (or cleanly finished) machine,
          after [oracle] passed *)
  oracle :
    (crashed:bool -> Memsim.Sim.t -> Pstm.Ptm.t -> (unit, oracle_failure) result) option;
      (** the durable-linearizability oracle: replays the recorded
          operation history (see {!Dlin}) against the recovered state;
          a failure carries a replayable counterexample.  [None] for
          scenarios without a history recorder. *)
}

type scenario = {
  name : string;
  threads : int;
  heap_words : int;
  log_words_per_thread : int;
  coalesce : bool;
      (** run the PTM with flush coalescing (the default commit path) or
          the naive per-entry flush/fence discipline — both are probed
          by the crash sweep *)
  algorithms : Memsim.Config.model -> Pstm.Ptm.algorithm list;
      (** the algorithm columns {!Scenarios.matrix} sweeps under each
          durability domain *)
  prepare : Pstm.Ptm.t -> unit;
      (** untimed population phase, run once on a fresh region; must
          store any addresses the workers need in region roots *)
  fresh : seed:int -> instance;
      (** new instance with empty shadow state; equal seeds must yield
          identical workloads (the engine re-runs the same instance
          descriptor once per crash point) *)
}

type failure = {
  crash_at : int;  (** the sampled instant that first failed *)
  min_crash_at : int;  (** smallest failing instant found by shrinking *)
  reason : string;
  replay : string;  (** one shell command reproducing [min_crash_at] *)
  telemetry_dir : string option;
      (** directory holding a full telemetry capture of the minimal
          failing re-run — phase profile, machine trace (Perfetto), a
          profile of the post-crash recovery, and (for dlin-oracle
          failures) the [dlin.jsonl] counterexample — or [None] if the
          dump could not be written *)
}

type report = {
  scenario : string;
  model : string;
  algorithm : string;
  seed : int;
  final_time : int;  (** virtual ns of the crash-free reference run *)
  candidates : int;  (** distinct candidate crash instants enumerated *)
  tested : int;  (** instants actually probed *)
  failures : failure list;  (** empty when the oracle found no violation *)
}

val ok : report -> bool
(** No failures. *)

val pp_report : Format.formatter -> report -> unit

(** The msync subsystem's scenario shape: one mutator instead of a
    thread team, over the {!Fams.t} runtime. *)

type fams_instance = {
  f_worker : Memsim.Sim.t -> Fams.t -> unit;
      (** body of the single mutator (FAMS is single-writer); the [Sim]
          is passed for the virtual clock *)
  f_validate : crashed:bool -> Memsim.Sim.t -> Fams.t -> (unit, string) result;
      (** runs after [f_oracle] passed; holds only what dlin cannot
          express (for {!Scenarios.fams_bank}: the recovered state
          reaches the last {e completed} sync) *)
  f_oracle :
    (crashed:bool -> Memsim.Sim.t -> Fams.t -> (unit, oracle_failure) result) option;
      (** durable-linearizability oracle; after a crash FAMS scenarios
          check with [`Buffered] durability — recovery restores the last
          completed sync, so any real-time-closed cut is legal — and a
          crash-free run is judged [`Strict] *)
}

type fams_scenario = {
  f_name : string;
  f_words : int;  (** working-area size *)
  f_prepare : Fams.t -> unit;
      (** raw (untimed) population of the working area; the engine
          checkpoints afterwards, so the prepared image starts fully
          synced *)
  f_fresh : seed:int -> fams_instance;
}

(** {1 Matrix cells}

    One (scenario, durability model, algorithm column) point of the
    crash matrix over either runtime, optionally armed with a
    deliberate bug for mutation-testing the oracle.  A FAMS cell's
    column is its granularity (["fams-line"] / ["fams-page"]), and its
    sweep always probes the WPQ drain windows in the mutator's quiet
    intervals. *)

type cell

val ptm_cell :
  ?inject:Pstm.Ptm.inject -> model:Memsim.Config.model -> algorithm:Pstm.Ptm.algorithm ->
  scenario -> cell
(** The prepared image is always populated without [inject]. *)

val fams_cell :
  ?inject:Fams.inject -> model:Memsim.Config.model -> granularity:Fams.granularity ->
  fams_scenario -> cell

val names : cell -> string * string * string
(** [(scenario, model, algorithm column)], as reports print them. *)

val sweep : ?points:int -> ?seed:int -> ?exhaustive:bool -> cell -> report
(** Run the full exploration for one cell: a seeded sample of [points]
    candidate instants (default 64, [seed] default 1), or every
    candidate when [exhaustive] (default [false]).  The machine
    interleaves 4 NVM channels so WPQ completions can reorder relative
    to issue order — the hazard window missing fences open.
    @raise Failure if the crash-free reference run already violates the
    scenario's model (harness bug, not a crash-consistency bug — the
    injected bugs weaken durability only, never the cache-visible
    heap). *)

val probe : seed:int -> crash_at:int -> cell -> (unit, string) result
(** Probe a single crash instant — the replay path for a failure
    printed by {!sweep} (see {!Scenarios.replay}). *)

val explore :
  ?points:int -> ?seed:int -> ?exhaustive:bool -> ?inject:Pstm.Ptm.inject ->
  model:Memsim.Config.model -> algorithm:Pstm.Ptm.algorithm -> scenario -> report
(** {!sweep} of a {!ptm_cell}. *)

val recovery_convergence :
  model:Memsim.Config.model -> algorithm:Pstm.Ptm.algorithm -> seed:int -> crash_at:int ->
  scenario -> (unit, string) result
(** Recover-idempotence oracle: crash the workload at [crash_at], then
    inject a {e second} crash inside recovery itself — after [k]
    persistent writes, for up to 8 seeded samples [k] of the reference
    recovery's write count — recover again, and require the final heap
    image to be word-for-word identical to an uninterrupted recovery's,
    and the scenario's oracle to accept it.  [Ok ()] when the workload
    ran to completion before [crash_at]. *)
