(** Per-request stage decomposition of the live serve path — where the
    milliseconds go.

    Telescopes consecutive request boundaries (parse start, dispatch
    decision, ring push, worker pickup, first quantum, last quantum
    end, reply pop), all stamped from the one live clock
    ({!Tq_util.Time_unit.now_ns}), into per-stage latency histograms:

    {v
    parse -> dispatch -> ring_hop -> first_run_wait
          -> service -> preempt_overhead -> reply_flush
    v}

    Because every stage is a difference of consecutive boundary stamps,
    a decomposed request's stages sum to its sojourn {e exactly} — the
    invariant behind the Stats RPC breakdown view, [tq_load
    --breakdown] and the committed BENCH_breakdown.json.

    {!record} is the one per-request path.  The live server calls it at
    every completion, so its breakdown covers every completed request
    with or without spans; {!of_records} calls it for each request it
    rebuilds from a merged {!Span} stream (a trace, or the DES).  On
    that path requests with overwritten, out-of-order or missing spans
    degrade to an [unattributed] bucket (never an exception); shed
    requests get a [shed] stage; accepts are connection-scoped and
    excluded from the per-request sum. *)

(** A per-request pipeline stage, in order. *)
type stage =
  | S_parse  (** decode + classify + admission, parse start to dispatch start *)
  | S_dispatch  (** worker choice + ring push *)
  | S_ring_hop  (** sitting in the dispatcher->worker SPSC ring *)
  | S_first_run_wait  (** in the worker's run queue before the first quantum *)
  | S_service  (** sum of quantum durations actually running *)
  | S_preempt_overhead  (** gaps between consecutive quanta (requeue waits) *)
  | S_reply_flush  (** last quantum end to dispatcher reply pop *)

(** [stage_name s] — stable lower-case name (JSON keys, table rows,
    Prometheus [class] label). *)
val stage_name : stage -> string

(** Every stage, in pipeline order. *)
val stages : stage list

(** [stage_names] = [List.map stage_name stages]. *)
val stage_names : string list

(** A decomposition: built whole by {!of_records}, or grown one
    request at a time by {!record}. *)
type t

(** An empty decomposition: ten histograms, each too large for the
    minor heap, so creating one forces no minor collection. *)
val create : unit -> t

(** [record t ~p0 ~t0 ~t1 ~pickup ~first ~run_ns ~last_end ~pop]
    decomposes one completed request from its boundaries: parse start,
    dispatch start, ring push, worker pickup, first quantum start,
    summed quantum time, last quantum end and reply pop.  The stages
    sum to [pop - p0]; a negative one sends the request to the
    unattributed bucket.  Allocates nothing.  Single writer. *)
val record :
  t ->
  p0:int ->
  t0:int ->
  t1:int ->
  pickup:int ->
  first:int ->
  run_ns:int ->
  last_end:int ->
  pop:int ->
  unit

(** [record_shed t ns] — one shed request, [ns] from parse start to
    the shed decision. *)
val record_shed : t -> int -> unit

(** [record_accept t] — one connection accept. *)
val record_accept : t -> unit

(** [last t] — the seven stages of the request {!record} took last, in
    {!stages} order; overwritten by the next call, so copy to keep. *)
val last : t -> int array

(** [of_records records] decomposes a merged span stream (see
    {!Span.merge}); total over all requests found in it.  Never
    raises on malformed streams. *)
val of_records : Span.record list -> t

(** [latency t] — the per-stage recorders keyed by {!stage_name} plus
    ["sojourn"], ["shed"] and ["unattributed"]; feed to
    {!Expo.render_latency} for the per-stage Prometheus series. *)
val latency : t -> Latency.t

(** [requests t] — requests fully decomposed into stages. *)
val requests : t -> int

(** [exact t] — decomposed requests whose stage sum equals their
    sojourn to the nanosecond. *)
val exact : t -> int

(** [exact_fraction t] — [exact / requests], 1.0 when empty. *)
val exact_fraction : t -> float

(** [sheds t] — requests that landed in the [shed] stage. *)
val sheds : t -> int

(** [unattributed_count t] — requests degraded to the unattributed
    bucket (overwritten / out-of-order / partial spans). *)
val unattributed_count : t -> int

(** [incomplete t] — requests still in flight at snapshot time (span
    path only: {!record} sees a request once it has completed). *)
val incomplete : t -> int

(** [accepts t] — connection accepts seen (excluded from request sums). *)
val accepts : t -> int

(** [stage_count t s] — samples recorded into stage [s]. *)
val stage_count : t -> stage -> int

(** [stage_sum_ns t s] — total nanoseconds attributed to stage [s]. *)
val stage_sum_ns : t -> stage -> int

(** [sum_rel_error t] — | total stage sum - total sojourn | / total
    sojourn over all decomposed requests (0 when empty). *)
val sum_rel_error : t -> float

(** [invariant_ok t] — every decomposed request telescoped exactly and
    the aggregate error is under 1%. *)
val invariant_ok : t -> bool

(** [to_json t] — the BENCH_breakdown.json document: schema header,
    invariant counters, per-stage count/percentiles/sum/share. *)
val to_json : t -> string

(** [render t] — the [tq_load --breakdown] table: one row per stage
    with count, p50/p90/p99 (µs), total ms and share of sojourn. *)
val render : t -> string
