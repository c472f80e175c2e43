(** Zipfian key-distribution sampler.

    Used by the YCSB workload and the kvserve client fleet to model
    skewed access patterns.  Construction is O(n): it builds the CDF
    and a guide table of [max 1 (n / 8)] buckets over [\[0, 1)].  A
    draw looks up its bucket, then binary-searches the few ranks inside
    it, so it costs O(1) on average (O(log n) at worst) and returns
    exactly the rank a binary search over the whole CDF would. *)

type t

val create : ?theta:float -> int -> t
(** [create ~theta n] prepares a sampler over ranks [\[0, n)] with skew
    exponent [theta] (default [0.99], the YCSB convention).
    [theta = 0.] degenerates to the uniform distribution.
    @raise Invalid_argument if [n <= 0]. *)

val n : t -> int
(** Population size. *)

val rank : t -> float -> int
(** [rank t u] is the rank a uniform draw [u] in [\[0, 1)] maps to: the
    smallest rank whose cumulative probability is at least [u]. *)

val sample : t -> Rng.t -> int
(** Draw a rank in [\[0, n)]; rank 0 is the most popular.  One
    [Rng.float] draw, then {!rank}. *)
