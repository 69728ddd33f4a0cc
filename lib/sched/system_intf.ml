(* The unified system interface.  Each adapter wraps one concrete
   scheduler behind the shared signature; capabilities a system lacks
   degrade to defaults (zero, None, no-op) instead of partial
   functions, so drivers carry no per-system branching. *)

type spec =
  | Two_level of Two_level.config
  | Stealing of Two_level.config
  | Centralized of Centralized.config
  | Caladan of Caladan.config

let spec_cores = function
  | Two_level (cfg : Two_level.config) | Stealing cfg -> cfg.cores
  | Centralized (cfg : Centralized.config) -> cfg.cores
  | Caladan (cfg : Caladan.config) -> cfg.cores

let spec_name = function
  | Two_level _ -> "two-level"
  | Stealing _ -> "stealing"
  | Centralized _ -> "centralized"
  | Caladan _ -> "caladan"

module type S = sig
  type t

  val name : string
  val submit : t -> Tq_workload.Arrivals.request -> unit
  val dispatcher_busy_ns : t -> int
  val obs_snapshot : t -> int * int * int
  val accounting : t -> Two_level.accounting option
  val in_system : t -> int
  val lost_jobs : t -> int
  val invariant_violations : t -> string list
  val inject_stall : t -> wid:int -> duration_ns:int -> unit
  val kill_worker : t -> wid:int -> unit
  val inject_dispatcher_outage : t -> dispatcher:int -> duration_ns:int -> unit

  (** Live actuators for feedback control.  Systems without the knob
      degrade to a no-op (Caladan is FCFS: no quantum; the baselines
      have no admission gate), preserving the no-per-system-branching
      driver contract. *)

  val set_quantum : t -> class_idx:int option -> quantum_ns:int -> unit
  val set_admission : t -> Admission.policy -> unit

  val install_health_monitor :
    t -> interval_ns:int -> until_ns:int -> missed_heartbeats:int -> unit
end

type instance = Instance : (module S with type t = 'a) * 'a -> instance

(* Faults address worker cores directly (the ground truth), exactly as
   the fault harness historically did for TQ: the dispatcher's belief is
   updated separately by its own health tracking. *)
module Two_level_system : S with type t = Two_level.t = struct
  type t = Two_level.t

  let name = "two-level"
  let submit = Two_level.submit
  let dispatcher_busy_ns = Two_level.dispatcher_busy_ns
  let obs_snapshot = Two_level.obs_snapshot
  let accounting t = Some (Two_level.accounting t)
  let in_system = Two_level.in_system
  let lost_jobs t = (Two_level.accounting t).Two_level.lost
  let invariant_violations = Two_level.invariant_violations

  let inject_stall t ~wid ~duration_ns =
    Worker.inject_stall (Two_level.workers t).(wid) ~duration_ns

  let kill_worker t ~wid = Worker.kill (Two_level.workers t).(wid)
  let inject_dispatcher_outage = Two_level.inject_dispatcher_outage
  let set_quantum t ~class_idx ~quantum_ns = Two_level.set_quantum t ?class_idx ~quantum_ns ()
  let set_admission = Two_level.set_admission_policy

  let install_health_monitor t ~interval_ns ~until_ns ~missed_heartbeats =
    ignore
      (Two_level.install_health_monitor t ~interval_ns ~until_ns ~missed_heartbeats ()
        : Tq_engine.Sim.periodic)
end

(* Push+steal TQ runs on the same concrete type; only the label
   differs, so sweep output distinguishes the two systems. *)
module Stealing_system : S with type t = Two_level.t = struct
  include Two_level_system

  let name = "stealing"
end

module Centralized_system : S with type t = Centralized.t = struct
  type t = Centralized.t

  let name = "centralized"
  let submit = Centralized.submit
  let dispatcher_busy_ns = Centralized.dispatcher_busy_ns
  let obs_snapshot = Centralized.obs_snapshot
  let accounting _ = None

  let in_system t =
    let _, in_flight, _ = Centralized.obs_snapshot t in
    in_flight

  let lost_jobs = Centralized.lost_jobs
  let invariant_violations = Centralized.invariant_violations
  let inject_stall = Centralized.inject_stall
  let kill_worker = Centralized.kill_worker

  let inject_dispatcher_outage t ~dispatcher:_ ~duration_ns =
    Centralized.inject_dispatcher_outage t ~duration_ns

  let install_health_monitor _ ~interval_ns:_ ~until_ns:_ ~missed_heartbeats:_ = ()
  let set_quantum t ~class_idx ~quantum_ns = Centralized.set_quantum t ?class_idx ~quantum_ns ()
  let set_admission _ _ = ()
end

module Caladan_system : S with type t = Caladan.t = struct
  type t = Caladan.t

  let name = "caladan"
  let submit = Caladan.submit

  (* Directpath has no central core; IOKernel forwarding cost is modelled
     on the packet path, not as dispatcher busy time. *)
  let dispatcher_busy_ns _ = 0
  let obs_snapshot = Caladan.obs_snapshot
  let accounting _ = None

  let in_system t =
    let _, in_flight, _ = Caladan.obs_snapshot t in
    in_flight

  let lost_jobs = Caladan.lost_jobs
  let invariant_violations = Caladan.invariant_violations
  let inject_stall = Caladan.inject_stall
  let kill_worker = Caladan.kill_worker

  let inject_dispatcher_outage t ~dispatcher:_ ~duration_ns =
    Caladan.inject_iokernel_outage t ~duration_ns

  let install_health_monitor _ ~interval_ns:_ ~until_ns:_ ~missed_heartbeats:_ = ()

  (* FCFS run-to-completion: there is no quantum and no admission gate
     to retune. *)
  let set_quantum _ ~class_idx:_ ~quantum_ns:_ = ()
  let set_admission _ _ = ()
end

let instantiate spec sim ~rng ~metrics ?obs ?admission ?on_complete ?on_reject ?on_lost
    () =
  match spec with
  | Two_level config ->
      let t =
        Two_level.create sim ~rng ~config ~metrics ?obs ?admission ?on_complete
          ?on_reject ?on_lost ()
      in
      Instance ((module Two_level_system), t)
  | Stealing config ->
      let t =
        Two_level.create sim ~rng ~config ~metrics ?obs ?admission ~steal:true
          ?on_complete ?on_reject ?on_lost ()
      in
      Instance ((module Stealing_system), t)
  | Centralized config ->
      let t = Centralized.create sim ~rng ~config ~metrics ?obs ?on_complete ?on_lost () in
      Instance ((module Centralized_system), t)
  | Caladan config ->
      let t = Caladan.create sim ~rng ~config ~metrics ?obs ?on_complete ?on_lost () in
      Instance ((module Caladan_system), t)

let submit (Instance ((module M), t)) req = M.submit t req
let dispatcher_busy_ns (Instance ((module M), t)) = M.dispatcher_busy_ns t
let obs_snapshot (Instance ((module M), t)) = M.obs_snapshot t
let accounting (Instance ((module M), t)) = M.accounting t
let in_system (Instance ((module M), t)) = M.in_system t
let lost_jobs (Instance ((module M), t)) = M.lost_jobs t
let invariant_violations (Instance ((module M), t)) = M.invariant_violations t
let inject_stall (Instance ((module M), t)) ~wid ~duration_ns =
  M.inject_stall t ~wid ~duration_ns

let kill_worker (Instance ((module M), t)) ~wid = M.kill_worker t ~wid

let inject_dispatcher_outage (Instance ((module M), t)) ~dispatcher ~duration_ns =
  M.inject_dispatcher_outage t ~dispatcher ~duration_ns

let install_health_monitor (Instance ((module M), t)) ~interval_ns ~until_ns
    ~missed_heartbeats =
  M.install_health_monitor t ~interval_ns ~until_ns ~missed_heartbeats

let set_quantum (Instance ((module M), t)) ~class_idx ~quantum_ns =
  M.set_quantum t ~class_idx ~quantum_ns

let set_admission (Instance ((module M), t)) policy = M.set_admission t policy
