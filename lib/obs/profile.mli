(** Per-request stage decomposition of the live serve path — where the
    milliseconds go.

    Folds a merged {!Span} stream into per-stage latency histograms by
    telescoping consecutive request boundaries (parse start, dispatch
    decision, ring pickup, quanta, reply pop), all stamped from the
    one live clock ({!Tq_util.Time_unit.now_ns}):

    {v
    parse -> dispatch -> ring_hop -> first_run_wait
          -> service -> preempt_overhead -> reply_flush
    v}

    Because every stage is a difference of consecutive boundary stamps,
    a decomposed request's stages sum to its sojourn {e exactly} — the
    invariant behind the Stats RPC breakdown view, [tq_load
    --breakdown] and the committed BENCH_breakdown.json.  Requests with
    overwritten, out-of-order or missing spans degrade to an
    [unattributed] bucket (never an exception); shed requests get a
    [shed] stage; accepts are connection-scoped and excluded from the
    per-request sum. *)

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

(** A completed decomposition. *)
type t

(** [of_records records] decomposes a merged span stream (see
    {!Span.merge}); total over all requests found in it.  Never
    raises on malformed streams. *)
val of_records : Span.record list -> t

(** [request_stages records] — per-request exact decompositions: for
    every request in the stream whose boundaries telescope cleanly, its
    id and the seven stage values in pipeline order (summing to the
    request's sojourn exactly).  Requests that would land in the
    unattributed bucket are omitted.  What {!Tail} uses to attach an
    exact stage breakdown to each retained slow request. *)
val request_stages : Span.record list -> (int * (stage * int) list) list

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

(** [incomplete t] — requests still in flight at snapshot time. *)
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
