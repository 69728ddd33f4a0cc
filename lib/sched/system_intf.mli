(** The unified system interface: one signature for every scheduler.

    Each of the three modelled systems — {!Two_level} (TQ),
    {!Centralized} (Shinjuku) and {!Caladan} — historically exposed its
    own create/submit/fault surface, and every driver (the experiment
    harness, the fault harness, the registry glue) carried a three-way
    match.  This module collapses that duplication: {!S} is the
    post-creation interface a driver needs (submission, accounting,
    metrics snapshots, fault hooks), {!instantiate} performs the single
    remaining per-system dispatch, and the packed {!instance} lets all
    downstream code run one functor-free path over a first-class
    module.

    Capabilities a system lacks degrade to harmless defaults rather
    than partiality: Caladan reports zero dispatcher busy time, the
    baselines ignore admission policies (they have no front-door gate),
    and {!S.install_health_monitor} is a no-op outside TQ (the
    centralized dispatcher sees core state directly; Caladan recovers
    only by stealing). *)

(** The per-system configuration, as built by {!Presets}.  This is the
    type historically named [Experiment.system_spec]; [Experiment]
    re-exports it, so existing constructors keep working. *)
type spec =
  | Two_level of Two_level.config
  | Stealing of Two_level.config
      (** TQ with idle-time work stealing armed
          ({!Two_level.create}[ ~steal:true]): same dispatcher push
          placement, plus an idle core's steal-half second chance.  A
          separate spec so sweeps compare push-only vs push+steal as
          peer systems. *)
  | Centralized of Centralized.config
  | Caladan of Caladan.config

(** Worker-core count of a spec (the fault injector's target space). *)
val spec_cores : spec -> int

(** Short stable name for labelling output ("two-level", "stealing",
    "centralized", "caladan"). *)
val spec_name : spec -> string

(** The operations every instantiated system supports.  [t] is the
    running system, already bound to a simulator, metrics sink and
    observability context by {!instantiate}. *)
module type S = sig
  type t

  (** System family name, e.g. ["two-level"]. *)
  val name : string

  (** NIC-arrival entry point: admit (or shed) and schedule one
      request. *)
  val submit : t -> Tq_workload.Arrivals.request -> unit

  (** Central-core busy time; 0 where no core is central (Caladan
      directpath). *)
  val dispatcher_busy_ns : t -> int

  (** [(queued, in_flight, busy_cores)] at this instant, for the
      time-series sampler (see {!Two_level.obs_snapshot}). *)
  val obs_snapshot : t -> int * int * int

  (** The live conservation record; [None] for systems that do not keep
      one (only TQ's dispatcher tracks per-request custody). *)
  val accounting : t -> Two_level.accounting option

  (** Admitted requests not yet completed, lost or dropped — the
      stranded count when the simulation drains. *)
  val in_system : t -> int

  (** Jobs destroyed by core failures so far. *)
  val lost_jobs : t -> int

  (** Every broken identity of the system's own bookkeeping (the
      aggregates it keeps so a per-event check need not scan), one line
      each; [[]] when sound. *)
  val invariant_violations : t -> string list

  (** {2 Fault hooks} — the uniform injection surface {!Tq_fault}
      drives.  Ground truth is always the worker core itself; dispatcher
      beliefs (where they exist) are updated by the system's own failure
      handling. *)

  (** Blind core [wid] for [duration_ns] (transient stall). *)
  val inject_stall : t -> wid:int -> duration_ns:int -> unit

  (** Permanently kill core [wid]; its in-flight slice is lost. *)
  val kill_worker : t -> wid:int -> unit

  (** Blind the steering core [dispatcher] for [duration_ns]; systems
      with a single (or no) central core ignore [dispatcher]. *)
  val inject_dispatcher_outage : t -> dispatcher:int -> duration_ns:int -> unit

  (** {2 Live actuators} — the knobs a feedback controller
      ({!Tq_control}) turns while the system runs.  Systems without the
      knob degrade to a no-op: Caladan is FCFS run-to-completion (no
      quantum), and only TQ has a front-door admission gate. *)

  (** Retune the preemption quantum from the next slice on; [class_idx
      = None] retunes the base quantum, [Some c] one request class
      (systems with a single global quantum ignore the class). *)
  val set_quantum : t -> class_idx:int option -> quantum_ns:int -> unit

  (** Swap the live admission policy (shed threshold / queue limit). *)
  val set_admission : t -> Admission.policy -> unit

  (** Start periodic heartbeat health tracking (TQ only; a no-op for
      systems without a dispatcher health estimate). *)
  val install_health_monitor :
    t -> interval_ns:int -> until_ns:int -> missed_heartbeats:int -> unit
end

(** A running system packed with its operations: the value every driver
    threads instead of a per-system variant. *)
type instance = Instance : (module S with type t = 'a) * 'a -> instance

(** [instantiate spec sim ~rng ~metrics ?obs ?admission ?on_complete
    ?on_reject ?on_lost ()] builds the system described by [spec] on
    [sim] and packs it.  [admission] and [on_reject] apply to systems
    with a front-door gate (TQ); the baselines accept everything, as
    they always have. *)
val instantiate :
  spec ->
  Tq_engine.Sim.t ->
  rng:Tq_util.Prng.t ->
  metrics:Tq_workload.Metrics.t ->
  ?obs:Tq_obs.Obs.t ->
  ?admission:Admission.policy ->
  ?on_complete:(Job.t -> unit) ->
  ?on_reject:(Tq_workload.Arrivals.request -> unit) ->
  ?on_lost:(Job.t -> unit) ->
  unit ->
  instance

(** {2 Instance accessors} — unpack-and-call helpers so call sites stay
    as terse as the old concrete calls. *)

val submit : instance -> Tq_workload.Arrivals.request -> unit
val dispatcher_busy_ns : instance -> int
val obs_snapshot : instance -> int * int * int
val accounting : instance -> Two_level.accounting option
val in_system : instance -> int
val lost_jobs : instance -> int
val invariant_violations : instance -> string list
val inject_stall : instance -> wid:int -> duration_ns:int -> unit
val kill_worker : instance -> wid:int -> unit
val inject_dispatcher_outage : instance -> dispatcher:int -> duration_ns:int -> unit
val set_quantum : instance -> class_idx:int option -> quantum_ns:int -> unit
val set_admission : instance -> Admission.policy -> unit

val install_health_monitor :
  instance -> interval_ns:int -> until_ns:int -> missed_heartbeats:int -> unit
