(** The Tiny Quanta system: two-level scheduling.

    Level 1 — a dispatcher that does *only* load balancing: it polls
    requests, spends [dispatch_ns] per request (it never parses job
    contents — blind scheduling), picks a worker by the configured
    policy, and pushes the job over a ring.  Its load is per-*job*, so
    shrinking the quantum does not increase dispatcher work.

    Level 2 — per-core workers that interleave quanta of their admitted
    jobs by forced multitasking ({!Worker}).  Completions bypass the
    dispatcher entirely: the worker records metrics and sends the reply
    itself, updating the counters the dispatcher reads. *)

type config = {
  cores : int;
  dispatchers : int;
      (** number of dispatcher cores; requests are RSS-spread across
          them and each balances over all workers (Section 6: scaling
          past one dispatcher's ~14 Mrps) *)
  quantum_policy : Worker.quantum_policy;
  dispatch_policy : Dispatch_policy.t;
  overheads : Overheads.t;
}

(** TQ defaults: 16 cores, 2 us PS quanta, JSQ+MSQ, calibrated costs. *)
val default_config : config

type t

(** Request conservation under faults; all fields are live (the record
    is the system's own mutable accounting).  The invariant pinned by
    the fault regression tests:

    [accepted = in_dispatch + on_worker + completed + lost +
    dropped_no_worker], where on_worker is the sum of
    [Worker.unfinished] over all cores (it includes jobs riding the
    ring, because assignment is counted at dispatch-decision time). *)
type accounting = {
  mutable submitted : int;
  mutable accepted : int;
  mutable rejected : int;  (** shed by admission control *)
  mutable in_dispatch : int;  (** inside a dispatcher (queued or in service) *)
  mutable on_ring : int;  (** riding a dispatcher->worker ring hop *)
  mutable completed : int;
  mutable lost : int;  (** destroyed by a core failure mid-slice *)
  mutable dropped_no_worker : int;  (** no live core to dispatch to *)
  mutable redispatches : int;  (** rescues off cores believed dead *)
}

(** [admission] (default [Accept_all]) gates every submission before
    dispatch cost is paid; [on_complete] fires per finished job,
    [on_reject] per shed request, [on_lost] per job destroyed by a core
    failure — the hooks the retry layer and fault harness attach to.

    [steal] (default [false]) arms idle-time work stealing under the
    dispatcher's push placement: a core that goes idle (and any core
    found idle when a ring delivery leaves a queue elsewhere) takes
    half of the most-loaded believed-alive core's queued-but-unstarted
    jobs, paying one [ring_hop_ns] transfer delay.  Assignment credit
    moves at steal time, so the {!accounting} invariant is unaffected.
    Steals count in [sched.steals] and record a [Steal] span.  With
    stealing off the event stream is byte-identical to the classic
    push-only TQ. *)
val create :
  Tq_engine.Sim.t ->
  rng:Tq_util.Prng.t ->
  config:config ->
  metrics:Tq_workload.Metrics.t ->
  ?obs:Tq_obs.Obs.t ->
  ?admission:Admission.policy ->
  ?steal:bool ->
  ?on_complete:(Job.t -> unit) ->
  ?on_reject:(Tq_workload.Arrivals.request -> unit) ->
  ?on_lost:(Job.t -> unit) ->
  unit ->
  t

(** [submit t req] is the NIC-arrival entry point. *)
val submit : t -> Tq_workload.Arrivals.request -> unit

(** {2 Failure handling}

    The dispatcher keeps a per-core health estimate, distinct from the
    ground truth [Worker.alive]: cores believed dead are excluded from
    dispatch and their queued-but-unstarted jobs are re-dispatched; a
    suspected core that answers heartbeats again (a stall, not a death)
    is readmitted. *)

(** Exclude core [wid] from dispatch and rescue its queued jobs.
    Idempotent. *)
val mark_worker_dead : t -> wid:int -> unit

(** Readmit core [wid] to the dispatch set.  Idempotent. *)
val mark_worker_alive : t -> wid:int -> unit

(** The dispatcher's current belief about core [wid]. *)
val worker_marked_alive : t -> wid:int -> bool

(** [install_health_monitor t ~interval_ns ~until_ns ?missed_heartbeats ()]
    starts the heartbeat loop: every interval each core is pinged
    ([Worker.responsive]); after [missed_heartbeats] consecutive misses
    (default 2) the core is marked dead, and a marked-dead core that
    responds again is revived.  Bounded by [until_ns] so the simulation
    can drain. *)
val install_health_monitor :
  t -> interval_ns:int -> until_ns:int -> ?missed_heartbeats:int -> unit ->
  Tq_engine.Sim.periodic

(** Blind the dispatcher for [duration_ns]: models a dispatcher-core
    outage.  Arrivals still queue (the NIC keeps delivering) and are
    served when the outage ends. *)
val inject_dispatcher_outage : t -> dispatcher:int -> duration_ns:int -> unit

(** {2 Live retuning}

    Actuators for {!Tq_control}-style feedback controllers: both take
    effect from the next slice / next arrival, never mid-event. *)

(** Retune the PS quantum on every worker core (see
    {!Worker.set_quantum}). *)
val set_quantum : t -> ?class_idx:int -> quantum_ns:int -> unit -> unit

(** Swap the live admission policy; rejection count and sojourn EWMA
    survive (see {!Admission.set_policy}). *)
val set_admission_policy : t -> Admission.policy -> unit

(** The live admission gate (sensor side: rejected count, EWMA). *)
val admission : t -> Admission.t

(** The live accounting record (mutated by the system as it runs). *)
val accounting : t -> accounting

(** Admitted requests not yet completed, lost, or dropped. *)
val in_system : t -> int

(** Cores the dispatcher currently believes alive. *)
val alive_worker_count : t -> int

(** Dispatcher utilization diagnostics (summed over dispatchers). *)
val dispatcher_busy_ns : t -> int

(** Total requests queued at dispatchers. *)
val dispatcher_queue_length : t -> int

(** Longest busy time of any single dispatcher core — the bottleneck
    measure when [dispatchers] > 1. *)
val max_dispatcher_busy_ns : t -> int

val workers : t -> Worker.t array

(** Every broken identity of the bookkeeping, one line each; [[]] when
    sound: each worker's own queued-job count must equal its
    {!Worker.queue_length}. *)
val invariant_violations : t -> string list

(** Steal batches executed, and jobs moved by them, since creation
    (both 0 unless [create ~steal:true]). *)
val steals : t -> int

val steal_items : t -> int

(** [(queued, in_flight, busy_cores)] at this instant, for the
    time-series sampler: jobs waiting (dispatcher + worker queues), jobs
    admitted but unfinished, and workers mid-quantum.  Queues of cores
    believed dead are included — a job there is still in the system
    until drained or lost, keeping the snapshot consistent with
    {!accounting} under faults. *)
val obs_snapshot : t -> int * int * int
