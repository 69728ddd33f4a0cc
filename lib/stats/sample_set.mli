(** Exact sample recorder.

    Stores every sample (unboxed) and answers percentile queries exactly
    by sorting a copy on demand.  This is the ground truth used for all
    reported tail latencies; the streaming {!Histogram} is validated
    against it in the test suite.

    Samples live in doubling segments that are never copied: the first
    {!add} allocates 1024 floats, each later segment is twice the last,
    and nothing already stored moves.  Storage stays within twice the
    sample count, and a set that never gets a sample costs one small
    record. *)

type t

(** [create ()] is an empty set; it allocates no sample storage. *)
val create : unit -> t

(** [add t x] appends [x]; it allocates only when a segment fills. *)
val add : t -> float -> unit

(** [count t] is the number of samples added. *)
val count : t -> int

(** [fold f init t] folds [f] over the samples in the order added. *)
val fold : ('a -> float -> 'a) -> 'a -> t -> 'a

(** [mean t] sums the samples in the order added; nan when empty. *)
val mean : t -> float

(** [percentile t p] with [p] in [0, 100]; nan when empty.  Uses the
    nearest-rank definition so p100 is the maximum.  Raises
    [Invalid_argument] when [p] is out of range. *)
val percentile : t -> float -> float

(** [union_percentile sets p] is {!percentile} over the samples of every
    set in [sets] together: it copies them into one array and sorts it
    once. *)
val union_percentile : t array -> float -> float

(** [to_sorted_array t] is a fresh array of the samples, sorted
    ascending. *)
val to_sorted_array : t -> float array
