(** Request spans: the one event model of the simulator and the live
    server.

    A span is one step of a request's journey — or one core-level event
    such as a stall — on one {!lane}.  The live server has a dispatcher
    thread plus N worker domains, so each domain registers its own
    span buffer: plain arrays one domain writes, plus an atomic count
    (the {!Tq_runtime.Spsc_ring} idiom).  {!merge} stitches the sinks
    into one request timeline once every writer has stopped; only the
    counts are read live.  A simulated system registers one sink per
    lane it writes and stamps spans with virtual nanoseconds.

    The hot-path contract: every record argument is an immediate int,
    and a sink obtained from a disabled collection is {!null_sink}, so
    the disabled record path is one branch with zero allocation (the
    enabled one allocates nothing either).  Call sites read {!enabled}
    once, when they are built, and guard every record (and any clock
    read or payload computation) on that bool:

    {[
      if t.spans_on then
        Span.record t.sink ~req_id ~phase:Span.Quantum ~start_ns ~dur_ns ~arg:0
    ]} *)

(** The hardware context a span happened on — one Perfetto track per
    dispatcher core and per worker core.  Spans that precede core
    assignment (client-side retries, NIC drops) go on [Global].
    [Gc d] is domain [d]'s garbage-collector track ({!Gc_events} owns
    it: GC pause spans render alongside, not inside, the worker
    lane). *)
type lane = Global | Dispatcher of int | Worker of int | Gc of int

(** [lane_name lane] — human-readable track label, e.g. ["worker 3"]. *)
val lane_name : lane -> string

(** [lane_tid lane] — stable Chrome-trace thread id: global 0,
    dispatcher [d] at [1 + d], worker [w] at [100 + w], GC domain [d]
    at [200 + d], so Perfetto sorts lanes in pipeline order. *)
val lane_tid : lane -> int

(** One step of a request's journey, in pipeline order, then the
    core-level and simulator-only events.  [Quantum] and [Stall] are
    core-level: [Quantum]'s [arg] is 1 when the job finished in it, 0
    when it was preempted; [Stall] is a blackout between quanta (an
    injected stall in the simulator; a wall-clock gap ≫ quantum — GC
    pause or OS preemption — on a live domain).  [Gc_minor] and
    [Gc_major] are per-domain collector pauses recorded by {!Gc_events}
    on the [Gc] lanes.

    The phases after [Gc_major] are recorded by the simulator only;
    {!Profile} ignores them.  Their [arg]: [Steal] the victim core,
    [Redispatch] the new core (the span sits on the old core's lane),
    [Retry] the attempt number (its [dur_ns] is the backoff), [Drop] a
    reason code ({!drop_nic}, {!drop_no_worker},
    {!drop_retries_exhausted}, {!drop_retry_budget}), [Outage] the
    dispatcher index (its [dur_ns] is the outage), and [Kill],
    [Mark_dead] and [Mark_alive] the core. *)
type phase =
  | Accept
  | Parse
  | Dispatch
  | Ring_hop
  | Quantum
  | Reply_flush
  | Stall
  | Shed
  | Gc_minor
  | Gc_major
  | Steal
  | Kill
  | Mark_dead
  | Mark_alive
  | Redispatch
  | Retry
  | Drop
  | Outage

(** Lower-case stable name, used as the Perfetto event name. *)
val phase_name : phase -> string

(** [Drop] reason: the NIC dropped the request before any core saw it. *)
val drop_nic : int

(** [Drop] reason: no core the dispatcher believes alive was left. *)
val drop_no_worker : int

(** [Drop] reason: the client gave up after its last retry. *)
val drop_retries_exhausted : int

(** [Drop] reason: the client gave up because the shared retry budget
    was spent. *)
val drop_retry_budget : int

(** One recorded span.  [dur_ns = 0] renders as an instant; [arg] is a
    phase-dependent small payload (worker index, class index, connection
    id); [req_id = -1] for core-level spans that concern no request. *)
type record = {
  req_id : int;
  phase : phase;
  lane : lane;
  start_ns : int;
      (** span start: {!Tq_util.Time_unit.now_ns} live, virtual time simulated *)
  dur_ns : int;
  arg : int;
}

(** A per-domain bounded span buffer.  Single-writer: one domain
    {!record}s into it — the one that {!register}ed it, or one it was
    handed to before its first record (a domain spawned after its sink
    was built); it grows to its capacity, then overwrites the oldest. *)
type sink

(** A collection of per-domain sinks. *)
type t

(** The shared disabled collection: registration hands out
    {!null_sink}, nothing is ever stored.  What every [?spans] argument
    defaults to. *)
val null : t

(** The sink that drops everything at the cost of one branch. *)
val null_sink : sink

(** [create ?capacity_per_sink ()] — an enabled collection whose sinks
    keep the last [capacity_per_sink] (default 65536) records each. *)
val create : ?capacity_per_sink:int -> unit -> t

(** [enabled t] — whether sinks of [t] store anything; read it once
    and guard extra work (clock reads, payload computation) on it. *)
val enabled : t -> bool

(** [register t lane] — a fresh sink on [lane], owned by the calling
    domain until handed over (registration itself is thread-safe;
    recording is not); it forces no minor collection.  Returns
    {!null_sink} when [t] is disabled. *)
val register : t -> lane -> sink

(** [record sink ~req_id ~phase ~start_ns ~dur_ns ~arg] appends one
    span.  All-int arguments, written in place: no minor-heap
    allocation on either path. *)
val record :
  sink -> req_id:int -> phase:phase -> start_ns:int -> dur_ns:int -> arg:int -> unit

(** [total t] — records ever written across all sinks (including
    overwritten ones). *)
val total : t -> int

(** [dropped t] — records lost to ring overwrites across all sinks. *)
val dropped : t -> int

(** [sink_dropped sink] — records lost to ring overwrites in this one
    sink; what the per-lane [obs.span_dropped] counter exposes. *)
val sink_dropped : sink -> int

(** [merge t] — every surviving record, stitched into one timeline:
    stable-sorted by [start_ns], ties keeping per-sink recording order
    and sinks in registration order.  Call it, and every export below,
    only once every writer has stopped (domains joined, {!Gc_events}
    stopped, or the simulator's single domain). *)
val merge : t -> record list

(** [to_chrome ~process t] — the merged timeline as Chrome trace-event
    JSON (open it at {{:https://ui.perfetto.dev} ui.perfetto.dev}): one
    Perfetto track per lane, named by {!lane_name} and ordered by
    {!lane_tid}, under the process name [process].  Spans with
    [dur_ns > 0] are complete ["X"] events, instants are ["i"];
    timestamps are microseconds with nanosecond precision. *)
val to_chrome : process:string -> t -> string

(** [records_to_chrome ~process records] — the same Chrome trace-event
    JSON for an arbitrary (already merged/filtered) record list; what
    the outlier-only export ({!Tail.to_chrome}) builds on. *)
val records_to_chrome : process:string -> record list -> string

(** [write_file ~process t path] writes {!to_chrome} output to [path],
    closing the file even on error. *)
val write_file : process:string -> t -> string -> unit

(** [to_text ?limit t] — the merged timeline as text, one line per
    record after a header with the recorded and overwritten counts;
    with [limit], only the last [limit] records, after a line saying
    how many earlier ones were elided. *)
val to_text : ?limit:int -> t -> string
