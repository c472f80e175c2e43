(** FAMS workloads: msync-API twins of the PTM microbenchmarks.

    Three mutation shapes over a flat working area — scattered bank
    transfers, open-addressed hash puts, leaf-clustered appends — each
    synced every 32 operations through
    {!Fams.msync_atomic}.  The runner reports a {!Driver.result}
    (comparable to the PTM rows: one op = one commit) plus the FAMS
    counters the write-amplification tables are built from. *)

type spec = {
  name : string;
  words : int;
  setup : Fams.t -> unit;
  make_op : Fams.t -> rng:Repro_util.Rng.t -> unit -> unit;
}

val bank : spec
(** Scattered one-word balance updates — sparse writes, the
    line-granularity showcase. *)

val kv : spec
(** Open-addressed hash puts (steady-state updates); key and value
    share a line. *)

val btree : spec
(** Leaf-clustered sequential appends — the dense case where page
    granularity can undercut per-line journal headers. *)

val all : spec list

type result = {
  driver : Driver.result;
  fams : Fams.Stats.t;
  profile : Pstm.Profile.t;
}

val series_name : Fams.granularity -> string
(** ["fams-line"] / ["fams-page"] — the algorithm column label. *)

val run :
  ?duration_ns:int ->
  model:Memsim.Config.model ->
  granularity:Fams.granularity ->
  spec ->
  result
(** One single-writer cell: populate (untimed), checkpoint, then
    mutate + sync for [duration_ns] of virtual time, drawing from
    {!Driver.default_seed}.  Deterministic in (spec, model,
    granularity). *)
