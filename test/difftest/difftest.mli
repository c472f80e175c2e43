(** Differential stress testing of the PTM against one sequential
    specification.

    A seeded generator produces a single-threaded trace of transactions
    over a fixed directory of slots — allocations, frees, payload
    writes and reads, and user-exception aborts.  One transaction is
    one {!Dlin} operation, and one sequential spec is its only
    interpreter: the generator picks each action from the spec's state,
    so every action is valid at its program point, and an aborted
    transaction changes nothing.

    {!execute} replays a trace under one (durability model, algorithm,
    flush discipline) configuration and records a one-thread
    {!Dlin.History}.  {!check_seed} replays it under the whole
    {!matrix} and demands

    + for every configuration, {!Dlin.check} finds the recorded
      responses (the values each transaction's reads returned) and the
      final heap explained by the spec; and
    + for each algorithm x model pair, the coalesced run issues no more
      sfences and no more clwbs than the naive run.

    Since traces are single-threaded there are no conflicts or retries:
    any divergence is a logging, write-back or allocator-rollback bug,
    not a scheduling artifact. *)

type action =
  | Alloc of { slot : int; words : int }
      (** allocate a fresh block of [words] payload words (zeroed) and
          install it in directory slot [slot] (empty at this point) *)
  | Free of { slot : int }  (** free the block in [slot], emptying it *)
  | Write of { slot : int; off : int; value : int }
  | Read of { slot : int; off : int }
  | Abort
      (** raise a user exception, aborting the enclosing transaction;
          always the last action of its transaction *)

type txn = action list
type trace = { slots : int; txns : txn list }

type state = int array option array
(** Per directory slot, the payload of the block it points at ([None]
    when empty).  Address-free, so allocator placement differences
    between configurations cannot cause false alarms. *)

type response =
  | Values of int list  (** what the transaction's reads returned, in order *)
  | Aborted

val gen_trace : ?slots:int -> ?txns:int -> int -> trace
(** [gen_trace seed] builds a trace (defaults: 8 slots, 40
    transactions).  Equal seeds yield identical traces. *)

type outcome = {
  history : (txn, response) Dlin.History.t;
  final : state;  (** the heap read back after the run *)
  commits : int;
  aborts : int;
  sfences : int;  (** whole-run fence count, from [Sim.Stats] *)
  clwbs : int;  (** whole-run write-back count, from [Sim.Stats] *)
}

val execute :
  ?heap_words:int ->
  model:Memsim.Config.model ->
  algorithm:Pstm.Ptm.algorithm ->
  coalesce:bool ->
  trace ->
  outcome
(** Replay [trace] on a fresh simulated machine under one
    configuration.  The heap readback runs untimed after the stats
    snapshot. *)

type config = {
  name : string;  (** ["redo/optane-adr/coalesced"] *)
  model : Memsim.Config.model;
  algorithm : Pstm.Ptm.algorithm;
  coalesce : bool;
}

val matrix : config list
(** Every algorithm x {optane-adr, optane-eadr, transient-cache,
    htm-commit} x {coalesced, naive}, minus the pairs {!Pstm.Ptm.runs_on}
    rejects. *)

val check_seed : ?slots:int -> ?txns:int -> int -> (unit, string) result
(** Run one seed through the whole matrix; [Error] carries every
    divergence found, one per line. *)
