(** Umbrella facade: one [open Core] (or [module C = Core]) gives
    access to the whole reproduction stack under stable names.

    Layering, bottom-up:
    - {!Machine} — the abstract persistent-memory machine (+ native backend)
    - {!Config}, {!Sim} — the simulated Optane DC machine and its knobs
    - {!Region}, {!Alloc} — persistent region and recoverable allocator
    - {!Ptm} — the persistent STM (redo "orec-lazy" / undo "orec-eager")
    - {!Bptree}, {!Phashtable}, {!Pblob} — persistent structures
    - {!Driver} and the paper's workloads — experiment harness
    - {!Crashtest} — crash-point exploration / durable-linearizability
      oracle over all of the above *)

module Rng = Repro_util.Rng
module Zipf = Repro_util.Zipf
module Table = Repro_util.Table
module Machine = Machine
module Config = Memsim.Config
module Sim = Memsim.Sim
module Region = Pmem.Region
module Alloc = Pmem.Alloc
module Check = Pmem.Check
module Ptm = Pstm.Ptm
module Profile = Pstm.Profile
module Telemetry = Telemetry
module Bptree = Pstructs.Bptree
module Phashtable = Pstructs.Phashtable
module Pblob = Pstructs.Pblob
module Driver = Workloads.Driver
module Bank = Workloads.Bank
module Tatp = Workloads.Tatp
module Tpcc = Workloads.Tpcc
module Vacation = Workloads.Vacation
module Memcached = Workloads.Memcached
module Btree_bench = Workloads.Btree_bench
module Ycsb = Workloads.Ycsb
module Experiments = Workloads.Experiments
module Crashtest = Crashtest

(* Convenience constructors used by the examples. *)

(** [simulated_machine ()] — a fresh simulated Optane machine under the
    chosen durability model (default ADR), returning both handles. *)
let simulated_machine ?(model = Config.optane_adr) ?(heap_words = 1 lsl 20) () =
  let sim = Sim.create (Config.make ~heap_words model) in
  (sim, Sim.machine sim)

(** PTM on a fresh simulated machine, in one call. *)
let simulated_ptm ?model ?heap_words ?(algorithm = Ptm.Redo) () =
  let sim, m = simulated_machine ?model ?heap_words () in
  let ptm = Ptm.create ~algorithm m in
  (sim, m, ptm)
