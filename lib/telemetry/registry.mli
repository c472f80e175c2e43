(** Unified metrics registry: named counters, gauges and histograms
    with labels, published once and exported three ways — Prometheus
    text exposition, memcached-style [stats] pairs, and JSONL rows.

    Deterministic: exports iterate metrics sorted by (name, labels)
    and every value renders as an integer or a [%.6g] float, so equal
    update sequences give byte-identical text. *)

type t
type metric

val create : unit -> t

val counter : t -> ?help:string -> ?labels:(string * string) list -> string -> metric
(** Find-or-create; (name, sorted labels) identifies the metric. *)

val gauge : t -> ?help:string -> ?labels:(string * string) list -> string -> metric
val histogram : t -> ?help:string -> ?labels:(string * string) list -> string -> metric

val inc : metric -> int -> unit
val set_int : metric -> int -> unit

val observe_hist : metric -> Repro_util.Histogram.t -> unit
(** Merge an existing histogram's counts into a histogram metric. *)

val value : metric -> float
val hist : metric -> Repro_util.Histogram.t

val metrics : t -> metric list
(** Sorted by (name, labels) — the export order. *)

val to_prometheus : t -> string
(** Prometheus text exposition ([# HELP] / [# TYPE]; histograms as
    summaries with p50/p95/p99 quantile lines, [_count] and [_max]). *)

val stats_pairs : t -> (string * string) list
(** Flat (token, value) pairs for the kvserve [stats] verb: label
    values joined into the name with ['.'], histogram statistics
    suffixed ([.count], [.p50], [.p95], [.p99], [.max]). *)

val jsonl : t -> string
(** One [{"kind":"metric",...}] JSON line per metric. *)

(** {1 Standard publishers} *)

val publish_ptm_stats : t -> ?labels:(string * string) list -> Pstm.Ptm.Stats.t -> unit
(** Publish {!Pstm.Ptm.Stats.t} as [ptm_*] gauges. *)
