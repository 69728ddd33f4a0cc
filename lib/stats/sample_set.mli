(** Exact sample recorder.

    Stores every sample (unboxed) and answers percentile queries exactly
    by sorting a copy on demand.  This is the ground truth used for all
    reported tail latencies; the streaming {!Histogram} is validated
    against it in the test suite. *)

type t

(** [create ?capacity ()] allocates no sample storage: the first {!add}
    allocates [capacity] slots (default 1024) and each later growth
    doubles, so a set that never gets a sample costs one small record. *)
val create : ?capacity:int -> unit -> t
val add : t -> float -> unit
val count : t -> int
val mean : t -> float
val max_value : t -> float
val min_value : t -> float

(** [percentile t p] with [p] in [0, 100]; nan when empty.  Uses the
    nearest-rank definition so p100 is the maximum. *)
val percentile : t -> float -> float

(** [percentiles t ps] sorts once and answers many queries. *)
val percentiles : t -> float list -> float list

val std_dev : t -> float
val clear : t -> unit
val to_sorted_array : t -> float array
