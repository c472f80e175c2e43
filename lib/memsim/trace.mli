(** Bounded event trace for the simulated machine.

    A ring buffer of the most recent machine events (loads, stores,
    flushes, fences, crashes), recorded with virtual timestamps and
    thread ids.  Debugging aid: when a crash-consistency test fails,
    the tail of the trace shows exactly which persistent operations
    raced the power failure.  Disabled by default; recording costs one
    array write per event when enabled. *)

type kind =
  | Load of int
  | Store of int
  | Clwb of int
  | Sfence
  | Publish of int  (** HTM commit of n words *)
  | Crash

type event = { at_ns : int; tid : int; kind : kind }

type t

val create : ?capacity:int -> unit -> t
(** Default capacity: 4096 events. *)

val record : t -> at_ns:int -> tid:int -> kind -> unit

val recorded : t -> int
(** Total events ever recorded (may exceed capacity). *)

val tail : t -> event list
(** Up to [capacity] most recent events, oldest first. *)

val find : t -> (event -> bool) -> event option
(** Most recent retained event satisfying the predicate. *)

val crash_points : ?halo:int -> t -> int list
(** Candidate crash instants harvested from the retained events: for
    every state-changing event (store, clwb, sfence, publish) at time
    [t], both [t] itself (power fails just before the event executes)
    and [t + halo] (just after), sorted, deduplicated, all positive.
    Loads are skipped — crashing around them adds no new
    persistent-state interleavings.  Default [halo] is 1. *)

val dump : Format.formatter -> t -> unit
(** Print the retained tail, one event per line. *)

val clear : t -> unit
