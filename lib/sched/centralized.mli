(** Centralized preemptive scheduling (the Shinjuku model).

    One dispatcher core owns a single queue of pending/preempted jobs and
    performs *every* scheduling operation: admitting arrivals, assigning
    a quantum of the head job to an idle worker, and triggering the
    preemption that returns an expired job to the queue.  Each operation
    occupies the dispatcher for a fixed cost, so dispatcher load grows as
    1/quantum — the scalability wall of Figures 4 and 16.  Workers pay a
    per-preemption interrupt overhead (Shinjuku: ~1 us via Dune posted
    interrupts).

    With all costs zero this is the idealized centralized
    processor-sharing simulator of Section 2 (Figures 1 and 2). *)

type config = {
  cores : int;  (** worker cores (dispatcher is extra) *)
  quantum_ns : int option;  (** [None] = run to completion (FCFS) *)
  net_op_ns : int;  (** dispatcher cost to admit one arrival *)
  sched_op_ns : int;  (** dispatcher base cost per quantum assignment *)
  sched_scan_per_core_ns : int;
      (** additional per-worker-core cost of each scheduling operation:
          the centralized dispatcher scans every core's state to decide
          preemptions, so its per-op cost grows with the core count —
          this is what caps Shinjuku at few cores for tiny quanta
          (Figure 16) while it still sustains 16 cores at 5 us *)
  preempt_ns : int;  (** worker-side overhead per preemption *)
  probe_overhead_frac : float;  (** 0 for interrupt-based systems *)
}

(** Idealized PS: every cost zero (Section 2 simulations). *)
val ideal_config : quantum_ns:int -> cores:int -> config

(** Calibrated Shinjuku (DESIGN.md): 200 ns sched ops, 1 us preemption. *)
val shinjuku_config : quantum_ns:int -> cores:int -> config

type t

(** [on_complete] fires per finished job and [on_lost] per job destroyed
    by a core failure — hooks for the retry layer and fault harness. *)
val create :
  Tq_engine.Sim.t ->
  rng:Tq_util.Prng.t ->
  config:config ->
  metrics:Tq_workload.Metrics.t ->
  ?obs:Tq_obs.Obs.t ->
  ?on_complete:(Job.t -> unit) ->
  ?on_lost:(Job.t -> unit) ->
  unit ->
  t

val submit : t -> Tq_workload.Arrivals.request -> unit

(** Retune the preemption quantum live, from the next slice on.
    Centralized scheduling has one global quantum, so [class_idx] is
    accepted and ignored; no-op in FCFS mode.  Raises
    [Invalid_argument] on a non-positive quantum. *)
val set_quantum : t -> ?class_idx:int -> quantum_ns:int -> unit -> unit

(** {2 Fault injection}

    Same model as {!Worker}: a stall is a transient blackout served
    between slices (the dispatcher's parked assignment waits it out); a
    kill is permanent — the in-flight slice's job is lost, the parked
    assignment returns to the central queue, and the core is never
    assigned to again (the centralized dispatcher sees core state
    directly, so there is no separate health-tracking estimate). *)

val inject_stall : t -> wid:int -> duration_ns:int -> unit

val kill_worker : t -> wid:int -> unit

(** Jobs destroyed by kills. *)
val lost_jobs : t -> int

(** Blind the single dispatcher core for [duration_ns]; every
    scheduling operation (admission, assignment, preemption) queues
    behind the blackout — centralization's whole-system failure mode. *)
val inject_dispatcher_outage : t -> duration_ns:int -> unit

(** Mean time between consecutive quantum starts on a worker minus the
    slice itself — i.e. added scheduling delay; used by the Figure 16
    dispatcher-scalability experiment.  nan before any measurement. *)
val mean_sched_gap_ns : t -> float

(** Mean achieved quantum interval (target slice + scheduling gap). *)
val mean_effective_quantum_ns : t -> float

val dispatcher_busy_ns : t -> int

(** Every broken identity of the bookkeeping, one line each; [[]] when
    sound.  A core is open when it has no assignment in flight, none
    parked and is not dead: each core's open flag and the open-core
    count must match a recount from that state. *)
val invariant_violations : t -> string list

(** [(queued, in_flight, busy_cores)] at this instant (see
    {!Two_level.obs_snapshot}). *)
val obs_snapshot : t -> int * int * int
