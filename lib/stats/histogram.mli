(** Log-bucketed histogram (HDR-style).

    Buckets grow geometrically: each power-of-two range is divided into
    [sub_buckets] linear sub-buckets, bounding relative quantile error by
    1/sub_buckets while using O(log range) memory.  Used where the exact
    recorder would be too large (reuse-distance profiles, long sweeps). *)

type t

(** [create ~max_value] tracks values in [0, max_value]; [sub_buckets]
    (default 32, power of two) bounds relative error. *)
val create : ?sub_buckets:int -> max_value:int -> unit -> t

(** [record t v] counts [v] once, clamped to [0, max_value]. *)
val record : t -> int -> unit

(** [record_n t v ~count] records [v] [count] times. *)
val record_n : t -> int -> count:int -> unit

(** [count t] is the number of values recorded. *)
val count : t -> int

(** [max_recorded t] is the largest value recorded (after clamping). *)
val max_recorded : t -> int

(** [percentile t p] returns a representative value at percentile [p]. *)
val percentile : t -> float -> int

(** [mean t] is approximated from bucket midpoints. *)
val mean : t -> float

(** [iter_buckets t f] calls [f ~lo ~hi ~count] on each non-empty bucket
    (value range inclusive-exclusive). *)
val iter_buckets : t -> (lo:int -> hi:int -> count:int -> unit) -> unit

(** [fraction_above t v] is the fraction of recorded values > [v]. *)
val fraction_above : t -> int -> float

(** [clear t] forgets every recorded value. *)
val clear : t -> unit
