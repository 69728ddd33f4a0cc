(** Named monotonic counters, gauges and power-of-two-bucket
    distributions, grouped in a registry.

    Registration (a hashtable lookup) happens once, at subsystem create
    time; the handle a subsystem holds is a bare mutable record, so a
    hot-path bump is a single store.  Counters are cheap enough to stay
    always-on; only span recording is gated.

    {b Ownership rule (multi-domain use).}  A registry is single-writer:
    exactly one domain registers into and bumps a given registry, and it
    must finish registering every name before other domains start
    reading.  The multi-domain serve path therefore keeps one registry
    per domain (dispatcher plus one per worker) and aggregates with
    {!merged}, which sums without locks.  Cross-domain reads are safe —
    OCaml ints are word-sized, no tearing — but only eventually
    consistent: a snapshot may lag each owner by a few bumps. *)

(** A monotonically increasing integer metric. *)
type counter

(** A last-write-wins float metric. *)
type gauge

(** A histogram with power-of-two buckets: bucket [i] counts
    observations in [[2{^i-1}, 2{^i})]. *)
type dist

(** A registered metric, as returned by {!find}. *)
type metric = Counter of counter | Gauge of gauge | Dist of dist

(** The registry: a name-keyed table of metrics. *)
type t

(** [create ()] — an empty registry. *)
val create : unit -> t

(** [counter t name] — the counter registered under [name], creating it
    at 0 on first use.  Raises [Invalid_argument] if [name] is already a
    gauge or dist. *)
val counter : t -> string -> counter

(** [gauge t name] — the gauge registered under [name], creating it at
    0.0 on first use.  Raises [Invalid_argument] on a kind clash. *)
val gauge : t -> string -> gauge

(** [dist t name] — the distribution registered under [name], created
    empty on first use.  Raises [Invalid_argument] on a kind clash. *)
val dist : t -> string -> dist

(** [incr c] adds 1. *)
val incr : counter -> unit

(** [add c n] adds [n]. *)
val add : counter -> int -> unit

(** [count c] — current value. *)
val count : counter -> int

(** [set g v] overwrites the gauge. *)
val set : gauge -> float -> unit

(** [value g] — current gauge reading. *)
val value : gauge -> float

(** [observe d v] records one observation (negative values clamp
    to 0). *)
val observe : dist -> int -> unit

(** [dist_count d] — number of observations. *)
val dist_count : dist -> int

(** [dist_mean d] — mean observation, [nan] when empty. *)
val dist_mean : dist -> float

(** [dist_max d] — largest observation, 0 when empty. *)
val dist_max : dist -> int

(** [dist_sum d] — sum of all observations. *)
val dist_sum : dist -> int

(** [dist_buckets d] — a copy of the bucket counts; bucket [i] covers
    [[2{^i-1}, 2{^i})].  For exporters ({!Expo}) and tests. *)
val dist_buckets : dist -> int array

(** [find t name] — lookup by name, for tests and generic dumps. *)
val find : t -> string -> metric option

(** [find_count t name] — a counter's value by name; a missing (or
    non-counter) name reads as 0, so assertions and dashboards need no
    option plumbing. *)
val find_count : t -> string -> int

(** [to_alist t] — every registered metric, sorted by name. *)
val to_alist : t -> (string * metric) list

(** [merged ts] — a fresh registry aggregating every registry in [ts]:
    counters and distributions sum (bucket-wise, with max-of-max),
    gauges sum — per-domain queue depths add up to the system total.
    This is the lock-free snapshot helper for per-domain registries; see
    the ownership rule above for its consistency guarantee.  Raises
    [Invalid_argument] when two registries disagree on a name's metric
    kind. *)
val merged : t list -> t

(** [dump t] — plain-text rendering of the whole registry, one metric
    per line (distributions list their non-empty buckets). *)
val dump : t -> string
