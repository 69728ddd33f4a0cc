(** Named wall-clock latency recorders with HDR-style histograms.

    The counter registry's power-of-two {!Counters.dist} buckets bound
    relative error by 2x — fine for spotting a distribution's shape,
    useless for reporting p99.9.  This module gives the load-generation
    path what it needs instead: per-class log-bucketed histograms
    ({!Tq_stats.Histogram}, 1/32 relative error) keyed by name, with
    percentile queries, a text rendering, and a JSON export
    ([tq_load --json]).

    Recorders are single-threaded (one load generator records into one
    registry); create one registry per recording thread.  The constraint
    is asserted in debug mode: with {!set_owner_check} on, recording
    from a domain other than the recorder's owner raises. *)

(** A registry of named latency histograms. *)
type t

(** One recorder: a log-bucketed histogram of nanosecond samples. *)
type recorder

(** [create ?max_ns ()] — an empty registry whose recorders track
    latencies in [0, max_ns] (default 100 s; larger samples clamp). *)
val create : ?max_ns:int -> unit -> t

(** [recorder t name] — the recorder registered under [name], created
    empty on first use. *)
val recorder : t -> string -> recorder

(** [record r ns] adds one latency sample (negative samples clamp
    to 0).  With the owner check on, raises [Invalid_argument] when
    called from a domain other than [r]'s owner. *)
val record : recorder -> int -> unit

(** [set_owner_check on] — globally enable (or disable, the default)
    the debug-mode single-writer assertion: each recorder remembers the
    domain that created it and {!record} verifies the caller matches.
    Off, the hot path pays one ref load and branch. *)
val set_owner_check : bool -> unit

(** [adopt r] transfers [r]'s ownership to the calling domain — for the
    legitimate create-then-hand-off pattern (build the registry on the
    main domain, record on a worker). *)
val adopt : recorder -> unit

(** Number of samples recorded. *)
val count : recorder -> int

(** [percentile r p] — a representative sample at percentile [p] (in
    [0, 100]); 0 when empty. *)
val percentile : recorder -> float -> int

(** Mean sample in nanoseconds; [nan] when empty. *)
val mean : recorder -> float

(** Largest sample recorded. *)
val max_ns : recorder -> int

(** [iter_buckets r f] calls [f ~lo ~hi ~count] on each non-empty
    underlying histogram bucket covering [[lo, hi)], in increasing
    order — what {!Expo} renders as a cumulative Prometheus
    histogram. *)
val iter_buckets : recorder -> (lo:int -> hi:int -> count:int -> unit) -> unit

(** [clear r] forgets every sample (e.g. at the end of a warmup
    window). *)
val clear : recorder -> unit

(** [clear_all t] clears every recorder in the registry. *)
val clear_all : t -> unit

(** Registered recorders with their names, sorted by name. *)
val to_alist : t -> (string * recorder) list

(** [merge ts] — a fresh registry pooling every source registry's
    samples, bucket-wise (same-named recorders combine; results match
    the pooled percentiles up to the histograms' native resolution).
    Sources are read without locks: call after the recording domains
    have quiesced for an exact cut, or live for an eventually-consistent
    snapshot.  The serve plane's views take their copy of the lane's
    sojourn ladder this way. *)
val merge : t list -> t

(** [dump t] — one line per recorder: count, mean and the standard
    percentile ladder (p50 / p90 / p99 / p99.9), in microseconds. *)
val dump : t -> string

(** [json_fields r] — the recorder's summary as a JSON object body
    (count, mean_us, p50_us .. p999_us, max_us), without braces, for
    embedding in larger reports. *)
val json_fields : recorder -> string

(** [to_json t] — the whole registry as one JSON object keyed by
    recorder name. *)
val to_json : t -> string
