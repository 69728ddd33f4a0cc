(** Cross-domain request spans for the live serving path.

    {!Trace} is a single ring written from one thread — fine for the
    simulator, a data race for the live server (one dispatcher thread
    plus N worker domains).  This module gives each domain its own
    bounded, lock-free span buffer (the {!Tq_runtime.Spsc_ring} idiom:
    per-cell [Atomic]s order record publication with the cursor update;
    exactly one domain writes each sink) and a {!merge} step that
    stitches the per-domain buffers into one request timeline.

    The hot-path contract matches {!Trace}: every record argument is an
    immediate int, and a sink obtained from a disabled collection is
    {!null_sink}, so the disabled record path is one branch with zero
    allocation.  Guard any extra clock reads with {!enabled}. *)

(** One step of a request's journey through the server, in pipeline
    order.  [Quantum] and [Stall] are core-level ([Stall] marks a
    wall-clock gap ≫ quantum between consecutive quanta on one domain —
    a GC pause or an OS preemption made visible).  [Gc_minor] and
    [Gc_major] are per-domain collector pauses recorded by
    {!Gc_events} on the [Event.Gc] lanes. *)
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

(** Lower-case stable name, used as the Perfetto event name. *)
val phase_name : phase -> string

(** One recorded span.  [dur_ns = 0] renders as an instant; [arg] is a
    phase-dependent small payload (worker index, class index, connection
    id); [req_id = -1] for core-level spans that concern no request. *)
type record = {
  req_id : int;
  phase : phase;
  lane : Event.lane;
  start_ns : int;  (** wall-clock span start *)
  dur_ns : int;
  arg : int;
}

(** A per-domain bounded span buffer.  Single-writer: one domain
    {!record}s into it — the one that {!register}ed it, or one it was
    handed to before its first record (a domain spawned after its sink
    was built); when full the oldest records are overwritten. *)
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

(** [enabled t] — whether sinks of [t] store anything; guard extra
    work (clock reads, payload computation) on this. *)
val enabled : t -> bool

(** [register t lane] — a fresh sink on [lane], owned by the calling
    domain until handed over (registration itself is thread-safe;
    recording is not).
    Returns {!null_sink} when [t] is disabled. *)
val register : t -> Event.lane -> sink

(** [record sink ~req_id ~phase ~start_ns ~dur_ns ~arg] appends one
    span.  All-int arguments: allocation happens only on the enabled
    path. *)
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
    stable-sorted by [start_ns], ties keeping per-sink recording order.
    Call after the writers have quiesced (server drained) for an exact
    cut; a live merge is a best-effort snapshot. *)
val merge : t -> record list

(** [to_chrome t] — the merged timeline as Chrome trace-event JSON (one
    Perfetto track per lane, reusing {!Event.lane_tid} /
    {!Event.lane_name}); spans with [dur_ns > 0] are complete ["X"]
    events, instants are ["i"]. *)
val to_chrome : t -> string

(** [records_to_chrome records] — the same Chrome trace-event JSON for
    an arbitrary (already merged/filtered) record list; what the
    outlier-only export ({!Tail.to_chrome}) builds on. *)
val records_to_chrome : record list -> string

(** [write_file t path] writes {!to_chrome} output to [path]. *)
val write_file : t -> string -> unit
