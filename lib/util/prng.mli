(** Deterministic pseudo-random number generation.

    The simulator must be reproducible: every stochastic component takes an
    explicit generator, never global state.  The implementation is
    xoshiro256** seeded through splitmix64, which is fast, has a 2^256 - 1
    period and passes BigCrush; [split] derives statistically independent
    streams so concurrent model components do not share a sequence. *)

type t

(** [create ~seed] builds a generator from a 64-bit seed. *)
val create : seed:int64 -> t

(** [split t] derives a fresh generator whose stream is independent of
    subsequent draws from [t]. *)
val split : t -> t

(** [copy t] duplicates the full generator state. *)
val copy : t -> t

(** [bits64 t] returns 64 uniformly distributed bits. *)
val bits64 : t -> int64

(** [int t bound] is uniform over [0, bound); [bound] must be positive. *)
val int : t -> int -> int

(** [int_in_range t ~lo ~hi] is uniform over the inclusive range. *)
val int_in_range : t -> lo:int -> hi:int -> int

(** [float t bound] is uniform over [0, bound). *)
val float : t -> float -> float

(** [bool t] is a fair coin. *)
val bool : t -> bool

(** [bernoulli t ~p] is true with probability [p]. *)
val bernoulli : t -> p:float -> bool

(** [exponential t ~mean] samples Exp with the given mean. *)
val exponential : t -> mean:float -> float

(** [exponential_int t ~mean] is [exponential t ~mean] rounded to the
    nearest int (halves away from zero), from the same single draw. *)
val exponential_int : t -> mean:float -> int

(** [lognormal t ~mu ~sigma] samples exp(N(mu, sigma^2)). *)
val lognormal : t -> mu:float -> sigma:float -> float

(** [gaussian t] samples a standard normal via Box-Muller. *)
val gaussian : t -> float

(** [shuffle t arr] permutes [arr] in place (Fisher-Yates). *)
val shuffle : t -> 'a array -> unit

(** [choose_weighted t weights] returns an index sampled proportionally to
    [weights]; weights must be non-negative with a positive sum. *)
val choose_weighted : t -> float array -> int
