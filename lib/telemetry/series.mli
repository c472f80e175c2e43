(** Ring-buffered time series of machine/runtime state.

    A monitor thread calls {!record} at a fixed virtual-time cadence;
    each sample snapshots the simulator's cumulative counters, the
    persistence debt ({!Memsim.Sim.Debt.sample} — WPQ occupancy, dirty
    L3 lines, ...) and PTM commit/abort totals plus deltas since the
    previous sample.  Everything is an integer counter read, so series
    are bit-deterministic and recording never advances virtual time. *)

type sample = {
  at_ns : int;
  debt : Memsim.Sim.Debt.t;  (** the persistence debt at the sample instant *)
  commits : int;  (** cumulative *)
  aborts : int;  (** cumulative *)
  d_commits : int;  (** since previous sample *)
  d_aborts : int;  (** since previous sample *)
  loads : int;
  stores : int;
  clwbs : int;
  sfences : int;
  writebacks : int;
  fence_wait_ns : int;
  wpq_stall_ns : int;
  nvm_reads : int;
}

type t

val create : ?capacity:int -> unit -> t
(** Default capacity 4096 samples; oldest samples are overwritten. *)

val record : t -> Memsim.Sim.t -> Pstm.Ptm.t -> unit

val recorded : t -> int
(** Total samples ever recorded (may exceed capacity). *)

val dropped : t -> int

val samples : t -> sample list
(** Retained samples, oldest first. *)

val csv_header : string

val to_csv : t -> string
(** Header plus one integer row per retained sample. *)
