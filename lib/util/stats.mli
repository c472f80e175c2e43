(** Small statistics helpers for reporting experiment results. *)

val mean : float array -> float
(** Arithmetic mean; [nan] on an empty array. *)

val percentile : float array -> float -> float
(** [percentile xs p] for [p] in [\[0,100\]], by linear interpolation over
    a sorted copy.  [nan] on an empty array. *)

type counter
(** Streaming counter: count / sum / min / max without storing samples. *)

val counter : unit -> counter
val add : counter -> float -> unit

val merge : counter -> counter -> counter
(** Fresh counter summarizing both inputs (inputs untouched); merging a
    fresh/empty counter is the identity. *)

val count : counter -> int
val total : counter -> float
val minimum : counter -> float
val maximum : counter -> float
val average : counter -> float
