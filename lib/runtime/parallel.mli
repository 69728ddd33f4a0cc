(** Multi-domain TQ executor: real parallelism as a persistent service.

    One dispatcher (the thread that created the handle) load-balances
    jobs over worker domains through per-worker SPSC inject rings,
    using JSQ-MSQ on the workers' atomic counters ({!pick}); each
    worker domain drains its ring straight into its fiber queue and
    runs the forced-multitasking scheduler loop over those fibers on
    the monotonic clock ({!Clock.wall}) — the paper's per-core
    processor sharing.  As in TQ, placement is the only load balancing:
    a job runs on the worker it was submitted to (DESIGN.md explains
    why).

    The handle is persistent: {!create} builds every worker's state on
    the calling domain, {!start} spawns the worker domains, and they
    serve their rings until {!shutdown}, so a server can submit
    requests for its whole lifetime instead of draining one fixed batch.
    Splitting the two lets a caller finish its own set-up before any
    other domain exists: in OCaml 5 every minor collection stops every
    domain, parked ones included (DESIGN.md, "Live serving").
    A worker with nothing to run parks on its own {!Park} until a
    submit, {!shutdown}, {!kill_worker} or {!stall_worker} wakes it:
    idle workers neither spin nor sleep on a timer.
    The inject rings are single-producer {e per worker}: at any moment,
    at most one thread may {!submit_to} a given worker — one dispatcher
    thread owns every ring.  Any thread may read the counters.

    Fidelity caveats (DESIGN.md): wall-clock quanta include OCaml GC
    pauses, and the per-domain minor heaps make this a demonstration of
    the mechanism rather than a microsecond-accurate testbed. *)

type stats = {
  completed : int;
  yields : int;  (** total across workers *)
  per_worker_finished : int array;
}

(** A running pool of worker domains. *)
type t

(** [create ~workers ~quantum_ns ~ring_capacity ()] builds the state of
    [workers] (default 4) workers — inject rings, counters, span sinks,
    fiber schedulers — on the calling domain and spawns nothing: call
    {!start} to run them.  Jobs submitted before {!start} wait on the
    rings.  Each worker multitasks
    its admitted jobs with forced yields every [quantum_ns] (default
    100 us) of wall-clock time; [ring_capacity] (default 256) bounds
    each dispatcher->worker inject ring — a full ring is the
    backpressure signal {!submit} reports.

    Observability hooks (all default off / zero-cost):
    - [spans] — each worker registers a {!Tq_obs.Span} sink on its lane
      and records a [Quantum] span per executed slice (the span's
      [req_id] is the job's submit tag) plus a [Ring_hop] instant when a
      job lands on the core; disabled collections cost one branch.
    - [worker_counters] — one {!Tq_obs.Counters} registry per worker
      (array length must equal [workers]), each owned by its worker
      domain per the Counters ownership rule; quantum-length, overshoot
      and probe-cadence distributions land there.  Aggregate with
      [Counters.merged].
    - [stall_threshold_ns] (default [10 * quantum_ns]) — a wall-clock
      gap larger than this between consecutive busy slices on one worker
      counts as a stall (GC pause / OS preemption): bumped on
      [runtime.stalls], observed in [runtime.stall_gap_ns], and recorded
      as a [Stall] span when spans are on.  Idle waiting never counts.
    - [gc_pause_ns] — a per-domain cumulative GC pause clock (wire
      [Tq_obs.Gc_events.self_pause_ns]); each worker calls it from its
      own domain at quantum boundaries to attribute stalls: a gap at
      least half explained by GC pause growth bumps [runtime.stall_gc],
      otherwise [runtime.stall_other].  Without the hook every stall
      lands in [runtime.stall_unknown] and the quantum path pays one
      extra branch, nothing else.  Each job's residency also takes the
      growth of this clock and of [runtime.stalls] over its stay.
    - [on_finish] — called on the worker's domain each time a job
      finishes, with the worker's id and the job's
      {!Task_worker.residency} (its pickup, first-run, summed-run and
      last-end stamps, quanta, stalls and GC pause time): after the
      job's last slice has been stamped and spanned, and before the job
      counts as finished ({!in_flight}, {!drain}).  A job that leaves
      its result for this hook to publish has it seen only after the
      slice that made it has ended. *)
val create :
  ?workers:int ->
  ?quantum_ns:int ->
  ?ring_capacity:int ->
  ?classes:int ->
  ?spans:Tq_obs.Span.t ->
  ?worker_counters:Tq_obs.Counters.t array ->
  ?stall_threshold_ns:int ->
  ?gc_pause_ns:(unit -> int) ->
  ?on_finish:(wid:int -> Task_worker.residency -> unit) ->
  unit ->
  t

(** [start t] spawns one domain per worker, each running the loop
    {!create} built for it.  Raises [Invalid_argument] when called twice
    or after {!shutdown}. *)
val start : t -> unit

(** Number of worker domains ([classes] in {!create} sizes the
    per-class quantum override table read by {!set_quantum}). *)
val workers : t -> int

(** [pick t] — the paper's JSQ-MSQ choice right now: the least-loaded
    worker (assigned minus finished); among those, the one whose current
    tasks have serviced the most quanta (each worker publishes its count
    once per loop pass); among those, the lowest index.  Skips workers
    marked dead by {!mark_dead} and allocates nothing.  Raises
    [Invalid_argument] when every worker is dead. *)
val pick : t -> int

(** [submit_to t ?tag ?class_idx ~worker job] — push [job] onto
    [worker]'s inject ring; [false] when the ring is full (shed or
    retry — nothing was enqueued).  The job runs on [worker] and
    receives its id ([job ~wid]).  [tag] labels the job in
    worker-side observability (span [req_id]); the server
    passes its request id so worker quanta stitch to dispatcher spans.
    Untagged jobs get a pool-unique id.  [class_idx] (default 0)
    selects the job's quantum class for {!set_quantum} overrides.
    A parked worker is woken.
    Raises [Invalid_argument] after {!shutdown} or for an out-of-range
    worker. *)
val submit_to :
  t -> ?tag:int -> ?class_idx:int -> worker:int -> (wid:int -> unit) -> bool

(** [submit t ?tag ?class_idx job] =
    [submit_to t ?tag ?class_idx ~worker:(pick t) job]. *)
val submit : t -> ?tag:int -> ?class_idx:int -> (wid:int -> unit) -> bool

(** {2 Live actuation}

    The running pool's quantum knobs, writable from the dispatcher
    while workers serve: each worker re-reads them (two atomic loads)
    before every slice, so a retune lands within one quantum without
    pausing anything.  This is the actuation surface the feedback
    controller drives. *)

(** [set_quantum t ?class_idx ~quantum_ns ()] — with [class_idx], set
    that class's override (ignored when out of the [classes] range
    given to {!create}); without, set the shared base quantum and clear
    every per-class override.  Raises [Invalid_argument] on a
    non-positive quantum. *)
val set_quantum : t -> ?class_idx:int -> quantum_ns:int -> unit -> unit

(** The quantum a slice of [class_idx] (default: base) would run with
    right now. *)
val quantum_ns : t -> ?class_idx:int -> unit -> int

(** {2 Fault hooks and worker health}

    The live fault plane: the same failure modes the DES injector
    models ({!Tq_fault.Injector}), inflicted on real domains.  The pool
    only provides mechanisms — detection and re-dispatch policy live in
    the dispatcher (see {!Tq_serve.Server}'s heartbeat monitor). *)

(** [beats t ~worker] — the worker's loop-pass heartbeat counter.  A
    worker that is executing beats continuously; one that is parked
    with nothing to do, killed, stalled or wedged does not.  Judge only
    a worker that holds work ({!worker_in_flight}).  Monotone; sample
    and difference to detect progress. *)
val beats : t -> worker:int -> int

(** [stall_worker t ~worker ~duration_ns] — make the worker
    busy-occupy its core (no service, no heartbeat) for [duration_ns]
    from now, read on the clock its quanta run on: a CPU antagonist /
    stuck-worker fault.  The worker resumes by itself. *)
val stall_worker : t -> worker:int -> duration_ns:int -> unit

(** [kill_worker t ~worker] — the worker domain exits at its next loop
    pass, abandoning its ring and run queue (jobs neither execute nor
    complete).  Permanent; detection and recovery are the dispatcher's
    job. *)
val kill_worker : t -> worker:int -> unit

(** [mark_dead t ~worker] — the dispatcher's verdict after missed
    heartbeats: exclude the worker from {!pick}, {!in_flight} and
    {!alive_workers} so scheduling and drain proceed without it.
    Returns the worker's admitted-but-unfinished count at the verdict
    (the jobs the caller must re-dispatch); 0 if already dead. *)
val mark_dead : t -> worker:int -> int

(** [revive t ~worker] — undo {!mark_dead}: the dispatcher's verdict
    when a worker it declared dead beats again (it was only stalled).
    The worker rejoins {!pick}, {!in_flight} and {!alive_workers}; the
    jobs it still holds count and complete as usual. *)
val revive : t -> worker:int -> unit

(** [worker_alive t ~worker] — [false] while the worker is marked dead. *)
val worker_alive : t -> worker:int -> bool

(** Workers not marked dead. *)
val alive_workers : t -> int

(** Jobs admitted but not yet finished, pool-wide (queued on rings,
    queued on workers, or mid-quantum). *)
val in_flight : t -> int

(** Per-worker admitted-but-unfinished count — what {!pick} minimizes
    and ring-depth admission control reads. *)
val worker_in_flight : t -> worker:int -> int

(** Jobs on [worker]'s inject ring that the worker has not yet drained
    into its fiber queue.  Sampled into tail dossiers as the queue state
    a slow request saw at dispatch. *)
val ring_depth : t -> worker:int -> int

(** [parked t ~worker] — the worker has nothing to run and is parked,
    or is about to park, waiting for a push. *)
val parked : t -> worker:int -> bool

(** Live snapshot of the pool's counters (safe from any thread). *)
val stats : t -> stats

(** [drain t] blocks until {!in_flight} reaches zero, parked between
    checks: every finish and every {!mark_dead} wakes it.  Only
    meaningful once the producer has stopped submitting; jobs already
    admitted all finish — the zero-loss half of graceful shutdown.  One
    thread at a time may drain. *)
val drain : t -> unit

(** [shutdown t] drains, stops the workers, joins their domains and
    returns the final counters.  Idempotent; the handle rejects
    submissions afterwards.  On a pool never {!start}ed it joins
    nothing, and jobs still on the rings never run.

    (The historical [run] batch wrapper is gone: hold a handle and use
    {!create} / {!start} / {!submit} / {!drain} / {!shutdown}
    directly.) *)
val shutdown : t -> stats
