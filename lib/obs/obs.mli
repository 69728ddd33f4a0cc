(** The observability context threaded through a scheduler run: one
    span collection plus one metric registry.

    {!disabled} gives the zero-cost default — {!Span.null} (every sink
    is the null sink: one branch per would-be record, no allocation)
    and a private registry nobody reads — so subsystems can register
    and bump unconditionally.

    The fixed-interval time-series sampler lives alongside, but is owned
    by the run driver ([Tq_sched.Experiment]) because only it knows the
    sampling clock; see [Experiment.run ?obs]. *)

type t = {
  spans : Span.t;
  counters : Counters.t;
  sample_interval_ns : int;  (** time-series sampling period (virtual time) *)
}

(** [create ?sample_interval_ns ()] — a live context: an enabled span
    collection whose sinks keep the last 16384 records each, and a
    fresh counter registry,
    sampling every [sample_interval_ns] (default 10000) of virtual
    time. *)
val create : ?sample_interval_ns:int -> unit -> t

(** [disabled ()] — the no-cost context: {!Span.null}, throwaway
    registry.  What every subsystem's [?obs] argument defaults to. *)
val disabled : unit -> t

(** [of_counters reg] — a context carrying [reg] with spans off: what
    a worker domain threads through [?obs]-taking subsystems so its
    per-domain registry (see the {!Counters} ownership rule) stays
    live. *)
val of_counters : Counters.t -> t
