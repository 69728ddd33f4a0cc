(** GC pause telemetry via OCaml 5 [Runtime_events].

    A background systhread self-monitors the process through the
    runtime's always-compiled tracing ring, pairs minor/major
    collection begin/end events into pause spans per domain, and
    publishes them three ways: as {!Span} records on the per-domain
    {!Span.Gc} lanes (so Perfetto shows each pause next to the worker
    lane it stalled), as counters and pause-duration distributions in a
    registry of its own, and as a per-domain cumulative pause clock
    that the scheduler's stall detector reads to attribute wall-clock
    gaps to GC rather than OS preemption.

    Runtime_events stamps on [CLOCK_MONOTONIC], the clock behind
    {!Tq_util.Time_unit.now_ns} that stamps every live span, so pause
    spans carry the runtime's stamps unchanged and line up with the
    worker lanes exactly.

    One consumer per process: the thread owns the registry and the GC
    sinks (single-writer rule); everything exposed for cross-domain
    reading is either an [Atomic] or eventually-consistent counters. *)

(** A running consumer. *)
type t

(** [start ?spans ?poll_interval_s ()] begins collection: enables
    [Runtime_events] for this process and spawns the consumer thread
    (polling every [poll_interval_s], default 1 ms).  GC pause spans
    are recorded into [spans] when it is an enabled collection (default
    {!Span.null} — counters only). *)
val start : ?spans:Span.t -> ?poll_interval_s:float -> unit -> t

(** [stop t] drains outstanding events, frees the cursor and joins the
    consumer thread.  Idempotent. *)
val stop : t -> unit

(** [counters t] — the consumer's registry: [gc.minor_pauses],
    [gc.major_pauses] (counters), [gc.minor_pause_ns],
    [gc.major_pause_ns] (distributions) and [gc.events_lost] (ring
    overflow on the runtime side). *)
val counters : t -> Counters.t

(** [spans t] — the span collection GC pauses are recorded into (the
    one passed to {!start}). *)
val spans : t -> Span.t

(** [domain_pause_ns t dom] — cumulative GC pause nanoseconds observed
    on runtime domain index [dom]; 0 for out-of-range indices.
    Eventually consistent: lags the live domain by up to one poll
    interval. *)
val domain_pause_ns : t -> int -> int

(** [self_pause_ns t] — {!domain_pause_ns} for the calling domain.
    Uses [Domain.self] as the ring index, which matches the runtime's
    ring ids under the serve path's spawn-once domain layout; a
    workload that churns hundreds of domains would need a real
    id-to-ring map. *)
val self_pause_ns : t -> int
