(** The live multicore RPC server: TQ's two-level structure over real
    sockets.

    Level 1 is one dispatcher loop, {!serve}, on the thread that calls
    it.  It owns every connection and runs the classic dispatcher
    pass: reassemble length-prefixed frames, steer each request (KV by
    key hash so per-key state stays on one core, everything else
    JSQ-MSQ over every living worker), and write completed responses
    back through pooled zero-copy framing
    ({!Pool}, {!Protocol.Outbuf}).  The loop never executes request
    work — blind scheduling, per-*request* dispatcher cost.

    Level 2 is a persistent {!Tq_runtime.Parallel} pool: worker domains
    that force-multitask request fibers with wall-clock quanta and push
    encoded responses onto per-worker SPSC reply rings the dispatcher
    drains, ringing its doorbell when it is parked.

    Overload protection happens at the socket boundary, before any
    dispatch cost: a NIC-style ring-depth gate (shed when pool-wide
    in-flight reaches [rx_depth], like {!Tq_net.Nic} dropping on a full
    RX ring) composed with a pluggable {!Tq_sched.Admission} policy fed
    with completion sojourns.  Shed requests still get an immediate
    [Shed] response, so clients can tell rejection from loss.

    {!stop} triggers graceful drain: stop accepting and parsing,
    finish every dispatched request, flush every reply, then tear the
    pool down — zero admitted requests are lost (the accounting
    invariant [parsed = dispatched + shed] and
    [dispatched = completed] after drain, asserted by the drain test). *)

type config = {
  host : string;  (** bind address; default loopback *)
  port : int;  (** 0 picks an ephemeral port (see {!port}) *)
  workers : int;  (** worker domains *)
  quantum_ns : int;  (** forced-multitasking quantum (wall clock) *)
  ring_capacity : int;  (** dispatcher->worker ring depth *)
  rx_depth : int;
      (** shed when pool-wide in-flight requests reach this (the
          RX-ring-depth admission gate) *)
  admission : Tq_sched.Admission.policy;
      (** additional policy gate, fed with completion sojourns *)
  kv_keys : int;  (** prepopulated keys per worker store *)
  seed : int64;
  drain_timeout_s : float;
      (** give up flushing replies to unresponsive clients this long
          after {!stop} (the drain itself — finishing dispatched work —
          is unconditional) *)
  adaptive : Tq_control.Controller.config option;
      (** run the feedback controller: sampled at its [interval_ns] from
          the dispatcher loop, sensing completion burn and backlog,
          actuating per-class pool quanta and the admission shed limit
          (which replaces [admission] with a live [Queue_limit]).
          Decisions surface as [control.*] counters and the
          [Stats_control] RPC view.  [None] = static knobs. *)
  heartbeat_interval_s : float;
      (** worker liveness sampling period for the dispatcher's
          heartbeat monitor; [0] disables the monitor *)
  missed_heartbeats : int;
      (** consecutive no-progress windows before a worker holding work
          is declared dead and its requests are re-dispatched; a dead
          worker that beats again rejoins dispatch *)
  pool_bufs : int;
      (** framing buffers kept on the shared reply-buffer pool's free
          list ({!Pool}); more buffers, fewer allocation misses under
          deep pipelining *)
  pool_buf_bytes : int;
      (** size of each pooled framing buffer; responses that encode
          larger fall back to exact fresh allocations *)
}

(** Loopback, 4 workers, 100 us quanta, 256-deep rings,
    rx_depth 1024, accept-all admission, no controller,
    50 ms heartbeats with a 4-miss death verdict, 1024 pooled 4 KiB
    framing buffers. *)
val default_config : config

(** Dispatcher-side request accounting: the loop's ledger (a snapshot;
    see {!stats}). *)
type stats = {
  connections : int;  (** connections accepted over the lifetime *)
  parsed : int;  (** request-work frames successfully decoded *)
  dispatched : int;  (** admitted and handed to a worker *)
  completed : int;  (** responses popped from reply rings *)
  shed : int;  (** rejected by ring-depth or admission policy *)
  lost : int;
      (** admitted requests still pending when the loop exited (their
          worker died and re-dispatch never landed); 0 after a clean
          drain *)
  dropped : int;
      (** structural reserve for a future queue-drop path, 0 today;
          together with [lost] it closes the acceptance ledger
          [accepted = completed + lost + dropped + in_flight] *)
  in_flight : int;
      (** admitted and not yet answered, lost or dropped; 0 once
          {!serve} has returned *)
  stats_served : int;
      (** Stats RPCs answered at the dispatcher (not counted in
          [parsed], so [parsed = dispatched + shed] stays exact) *)
  protocol_errors : int;  (** malformed frames (connection closed) *)
  orphaned : int;  (** responses whose connection had closed *)
  duplicates : int;
      (** replies for already-answered requests, dropped (a worker
          declared dead completed after its work was re-dispatched) *)
  redispatched : int;
      (** requests moved off a dead worker onto a living one *)
  dead_workers : int;
      (** death verdicts reached by the heartbeat monitor (a stalled
          worker that revives and stalls again counts twice) *)
}

type t

(** [config_error config] — the first rule [config] breaks, as a
    one-line message naming the field and the value ([None] when every
    rule holds): positive [workers], [quantum_ns], [ring_capacity],
    [rx_depth] and [missed_heartbeats]; non-negative [kv_keys],
    [heartbeat_interval_s] and [pool_bufs]; [pool_buf_bytes] at least {!Pool.min_buf_bytes}; an [admission]
    policy {!Tq_sched.Admission.validate} accepts; an [adaptive]
    config {!Tq_control.Controller.validate} accepts. *)
val config_error : config -> string option

(** [create ?spans ?tail ?gc config] checks [config] (raising
    [Invalid_argument] with {!config_error}'s message before anything
    is bound or built), binds and listens (raising [Unix.Unix_error] on
    e.g. a busy port), builds every worker's state, the loop's state
    and the buffer pool on the calling domain, and spawns the worker domains
    last, so no collection during set-up waits on another domain.

    The loop keeps one ledger of its dispatcher events; every view
    ({!stats}, {!snapshot_json}, {!prometheus}, {!merged_counters} and
    the controller's sensing) reads it.  Each worker domain owns a
    private [runtime.*] registry (quanta, yields, stalls,
    quantum-length / overshoot / probe-cadence distributions) that
    snapshots merge in lock-free; the controller's [control.*] counters
    live in a registry of their own.

    Every completed request is decomposed once, at completion, into the
    seven {!Tq_obs.Profile} stages: the pending entry holds the loop's
    boundaries and the reply carries the worker's
    ({!Tq_runtime.Task_worker.residency}).  The breakdown view
    ({!breakdown}), the [serve_stage_ns] series of {!prometheus} and the
    tail dossiers all read that one record, with or without spans.

    [spans] (default disabled, zero per-request cost) turns on
    cross-domain request spans: the dispatcher records
    accept/parse/dispatch/shed/reply-flush on its own sink, workers
    record ring-hop/quantum/stall on theirs, all stitched by request id
    ({!Tq_obs.Span.merge}) into one Perfetto timeline, which
    {!Tq_obs.Profile.of_records} decomposes exactly as the loop does,
    once {!serve} has returned; only the span counts are read live.

    [tail] (default {!Tq_obs.Tail.null}, zero per-request cost) turns
    on always-on tail forensics: the loop owns the bounded reservoir
    that retains the K slowest completions per sliding window plus
    every threshold breach, each a complete dossier — stages, quanta,
    stalls, GC pause time, and the controller state and queue depths
    sampled at dispatch time ({!outlier_dossiers}).

    [gc] (a running {!Tq_obs.Gc_events} consumer) wires GC telemetry
    in: workers attribute wall-clock stalls to GC vs OS preemption
    ([runtime.stall_gc] / [runtime.stall_other] instead of
    [runtime.stall_unknown]), and the GC registry joins the snapshot,
    the Prometheus exposition (as [role="gc"]) and {!merged_counters}.
    Start it with the same span collection to also get GC pause spans
    in the trace. *)
val create :
  ?spans:Tq_obs.Span.t ->
  ?tail:Tq_obs.Tail.t ->
  ?gc:Tq_obs.Gc_events.t ->
  config ->
  t

(** The actually bound port — [config.port] unless that was 0. *)
val port : t -> int

(** [serve t] runs the dispatcher loop in the calling thread and
    returns once it has observed {!stop} and drained.  Call at most
    once.  Between passes with nothing to do the loop parks in one
    [select] over its sockets and a doorbell that workers ring with a
    reply, until its next timer.  Before it parks, a loop that has
    allocated {!minor_heap_words} since its last collection (or since
    {!create} began) runs a minor collection. *)
val serve : t -> unit

(** How much of its domain's minor heap, in words, the loop fills
    before it collects at a park (DESIGN.md, "Live serving", has the
    measurement behind it). *)
val minor_heap_words : int

(** [stop t] requests graceful drain; safe from another
    thread or a signal handler.  Idempotent. *)
val stop : t -> unit

(** [draining t] — {!stop} has been called: the health check's
    [503 draining]. *)
val draining : t -> bool

(** [parked t] — the loop has nothing to do and is blocked in its
    [select], or about to block: a worker's reply or {!stop} rings its
    doorbell. *)
val parked : t -> bool

(** Live accounting snapshot of the loop's ledger.  Safe from any
    thread — word-sized plain loads, never torn, eventually consistent
    while the loop runs and exact once {!serve} has returned.
    [parsed] and [in_flight] are derived from the same loads as the
    fields they sum, so {!ledger_violations} is [[]] for every
    snapshot. *)
val stats : t -> stats

(** [ledger_violations s] — one message per broken accounting identity,
    naming it with its values: [parsed = dispatched + shed] and
    [accepted = completed + lost + dropped + in_flight] (accepted is
    [dispatched]).  [[]] when both hold. *)
val ledger_violations : stats -> string list

(** {2 Live observability}

    What the Stats RPC renders; exposed directly for in-process use
    (tests, embedding).  Every view reads the loop's ledger and writes
    its counters and gauges into render-local registries, so these are
    safe from any thread. *)

(** Span records the dispatcher's sink lost to ring overwrites — the
    [obs.span_dropped] gauge; 0 means every dispatcher span is still
    in the buffer. *)
val span_dropped : t -> int

(** Completion sojourn latencies (parse start to reply-ring pop), per
    request class plus ["all"]: a copy of the registry the loop records
    as it polls replies (HDR percentiles at native resolution). *)
val latency : t -> Tq_obs.Latency.t

(** One registry with the ledger's [serve.*] counters, every worker's
    [runtime.*] registry and the controller's [control.*] (lock-free
    merge; eventually consistent), plus the render-time gauges and
    [serve.pool.*] framing-pool health. *)
val merged_counters : t -> Tq_obs.Counters.t

(** The live metrics snapshot as a JSON object: the {!stats} fields,
    gauges, the [io_plane] section (buffer-pool health), per-class
    breakdown, runtime totals and the latency ladder — the [Stats_json] RPC body, and the
    drain summary [tq_serve] prints and writes to [--stats-out]. *)
val snapshot_json : t -> string

(** The same snapshot as Prometheus text exposition — the [Stats_text]
    RPC body.  The loop renders as the [role="dispatcher"] series;
    workers carry [role] / [worker] labels; the per-stage decomposition
    ({!breakdown}) renders as the [tq_serve_stage_ns] histogram
    family. *)
val prometheus : t -> string

(** [render_stats t view] — the body of one Stats RPC view, or the
    error the RPC answers with (e.g. the controller or tail forensics
    is off).  The loop answers the Stats RPC through it, and
    {!Http_expo} serves [/metrics] and [/outliers] through it. *)
val render_stats : t -> Protocol.stats_view -> (string, string) result

(** [breakdown t] — the loop's per-stage sojourn decomposition of every
    completed request (and every shed), as {!create} describes: the
    [Stats_breakdown] RPC body, exposed for in-process assertions.  The
    loop's own record, not a copy: read live it is eventually
    consistent, and exact once {!serve} has returned. *)
val breakdown : t -> Tq_obs.Profile.t

(** [outlier_dossiers t ~limit] — the [limit] slowest retained requests
    ([limit <= 0] for all), each a complete dossier. *)
val outlier_dossiers : t -> limit:int -> Tq_obs.Tail.entry list

(** [tail_trace t] — Chrome trace-event JSON restricted to the retained
    outliers (their spans plus overlapping stall/GC records): the
    outlier-only Perfetto timeline ([tq_serve --tail-trace-out]).  Call
    it only after {!serve} has returned. *)
val tail_trace : t -> string

(** {2 Live fault plane}

    The failure modes of {!Tq_fault.Plan}, inflicted on the running
    server: recovery is proven here, not simulated.  All three are safe
    from the dispatcher thread (e.g. an {!on_tick} hook); [kill_worker]
    and [inject_stall] are also safe from any thread (atomic flags the
    worker reads). *)

(** [inject_stall t ~worker ~duration_ns] — the worker busy-occupies
    its core for the duration: no service, no heartbeat, then recovers
    by itself.  A long enough stall triggers the heartbeat monitor's
    death verdict, which the worker's next beat reverses; the duplicate
    filter absorbs the resulting races. *)
val inject_stall : t -> worker:int -> duration_ns:int -> unit

(** [kill_worker t ~worker] — the worker domain exits at its next loop
    pass, permanently, abandoning queued work.  The heartbeat monitor
    notices within [missed_heartbeats] windows, declares it dead and
    re-dispatches its pending requests — no request is lost. *)
val kill_worker : t -> worker:int -> unit

(** [pause_dispatcher t ~duration_ns] — the loop does nothing (no
    accepts, reads, replies or verdicts) until the deadline: a
    wedged-dispatcher fault.  Workers keep serving their rings. *)
val pause_dispatcher : t -> duration_ns:int -> unit

(** [on_tick t f] — call [f ~now_ns] once per dispatcher loop pass (before
    anything else moves, pause included); the hook a fault schedule
    driver ({!Tq_fault.Live}) uses to fire timed events without a
    thread.  Set before {!serve}. *)
val on_tick : t -> (now_ns:int -> unit) -> unit

(** The controller's live state as one JSON object (the [Stats_control]
    RPC body); [None] without [adaptive]. *)
val control_json : t -> string option

(** Workers not currently declared dead. *)
val alive_workers : t -> int
