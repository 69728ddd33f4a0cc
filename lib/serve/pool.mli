(** A lock-free pool of fixed-size byte buffers for reply framing.

    The serve plane encodes each response into a pooled [Bytes] on the
    worker domain, ships it over the reply ring, and the dispatcher
    lane blits it into the connection's write
    accumulator and returns it here — so the framing hot path reuses a
    small set of long-lived buffers instead of allocating per reply,
    cutting minor-GC pressure where the PR 6 stage breakdown showed the
    time going (reply framing/flush ~74% of sojourn on a shared core).

    The free list is a Treiber stack over [Atomic.compare_and_set]:
    acquire and release are safe from any domain, lock-free, and ABA is
    a non-issue under OCaml's GC.  Correctness never depends on the
    pool: a miss allocates fresh, an oversize request falls back to an
    exact allocation, and a release the pool cannot take is simply
    dropped for the GC to collect. *)

type t

(** The smallest [buf_bytes] {!create} accepts: 64. *)
val min_buf_bytes : int

(** [create ?max_pooled ?scrub ~buf_bytes ()] — a pool of buffers of
    exactly [buf_bytes] bytes (must be at least {!min_buf_bytes}), keeping at most
    [max_pooled] (default 1024) on the free list.  With [scrub] (debug;
    default off) every released buffer is zeroed before reuse, so any
    read past a frame's encoded length shows as zeros instead of stale
    bytes — the property the cross-request-bleed test pins down.
    Raises [Invalid_argument] on nonsensical parameters. *)
val create : ?max_pooled:int -> ?scrub:bool -> buf_bytes:int -> unit -> t

(** The fixed buffer size this pool hands out. *)
val buf_bytes : t -> int

(** [acquire t ~len] — a buffer with room for [len] bytes: a pooled
    (or fresh) [buf_bytes]-sized buffer when [len] fits, an exact fresh
    allocation otherwise.  Contents are unspecified (stale unless the
    pool scrubs) — the caller must track its own encoded length and
    never read past it.  Raises [Invalid_argument] on a negative
    [len]. *)
val acquire : t -> len:int -> bytes

(** [release t b] returns [b] to the free list.  Buffers of the wrong
    size (oversize fallbacks) and releases beyond [max_pooled] are
    dropped silently.  Never release a buffer still referenced
    elsewhere — the next {!acquire} may hand it to another request. *)
val release : t -> bytes -> unit

(** Buffers currently on the free list (approximate under concurrent
    traffic). *)
val pooled : t -> int

(** Acquires served from the free list. *)
val hits : t -> int

(** Acquires that had to allocate a fresh pool-sized buffer. *)
val misses : t -> int

(** Acquires larger than [buf_bytes], served by exact fresh
    allocations. *)
val oversize : t -> int

(** Releases dropped (wrong size or pool full). *)
val discarded : t -> int

(** [fill_counters t reg] publishes the pool statistics as
    [serve.pool.*] gauges into [reg] — call with a render-local registry
    when building a metrics exposition. *)
val fill_counters : t -> Tq_obs.Counters.t -> unit
