(* Graceful-degradation experiments (tq_fault): how much goodput and
   tail latency survive injected core stalls, a permanent core failure,
   and overload — TQ with its failure handling vs the centralized
   (Shinjuku) and Caladan baselines under the identical fault plan. *)

module Sim = Tq_engine.Sim
module Prng = Tq_util.Prng
module Text_table = Tq_util.Text_table
module Service_dist = Tq_workload.Service_dist
module Arrivals = Tq_workload.Arrivals
module Metrics = Tq_workload.Metrics
module Retry = Tq_workload.Retry
module Experiment = Tq_sched.Experiment
module Presets = Tq_sched.Presets
module Admission = Tq_sched.Admission
module Two_level = Tq_sched.Two_level
module Plan = Tq_fault.Plan
module Fault_experiment = Tq_fault.Fault_experiment

let cores_of = Tq_sched.System_intf.spec_cores

(* Client timeout scaled to the slowest job class so a healthy long job
   is never spuriously retried; the goodput deadline sits well past one
   full retry cycle. *)
let tuning workload =
  let max_class_mean =
    Array.fold_left
      (fun acc (c : Service_dist.job_class) ->
        Float.max acc (Service_dist.sampler_mean_ns c.sampler))
      0.0 workload.Service_dist.classes
  in
  let timeout_ns = max 50_000 (int_of_float (4.0 *. max_class_mean)) in
  let deadline_ns = 4 * timeout_ns in
  let retry =
    {
      Retry.default_config with
      timeout_ns;
      max_attempts = 3;
      backoff_base_ns = timeout_ns / 8;
      backoff_cap_ns = timeout_ns;
    }
  in
  (retry, deadline_ns)

let stall_plan ~intensity =
  if intensity <= 0.0 then []
  else
    [
      Plan.Stalls
        {
          intensity;
          duration = Plan.Exp_ns { mean = 50_000 };
          scope = Plan.All_workers;
          tick_ns = 10_000;
        };
    ]

let base_config ~workload ~rate_rps ~duration_ns ~faults =
  let retry, deadline_ns = tuning workload in
  {
    Fault_experiment.seed = 42L;
    duration_ns;
    rate_rps;
    faults;
    retry = Some retry;
    admission = Admission.Accept_all;
    health_interval_ns = Some 20_000;
    missed_heartbeats = 2;
    deadline_ns;
    controller = None;
  }

let pct v = Printf.sprintf "%.1f" (100.0 *. v)

let eventual_p99_us (r : Fault_experiment.result) =
  Metrics.overall_eventual_percentile r.metrics 99.0 /. 1e3

(* Goodput vs stall intensity for one system: the degradation curve
   [degradation] tabulates. *)
let goodput_points ?(quick = false) ~system ~workload () =
  let duration_ns = Harness.duration_ms (if quick then 4.0 else 10.0) in
  let rate_rps =
    0.7 *. Arrivals.capacity_rps ~cores:(cores_of system) workload
  in
  let intensities = if quick then [ 0.0; 0.05; 0.2 ] else [ 0.0; 0.02; 0.05; 0.1; 0.2 ] in
  List.map
    (fun intensity ->
      let config =
        base_config ~workload ~rate_rps ~duration_ns ~faults:(stall_plan ~intensity)
      in
      (intensity, Fault_experiment.run ~system ~workload config))
    intensities

let degradation ?(quick = false) ~system ~system_name ~workload () =
  let t =
    Text_table.create
      ~title:
        (Printf.sprintf "Faults: goodput degradation vs stall intensity (%s, %s, 70%% load)"
           system_name workload.Service_dist.name)
      ~columns:
        [ "stall %"; "goodput %"; "event p99(us)"; "retries"; "timeouts"; "lost"; "stranded" ]
  in
  List.iter
    (fun (intensity, (r : Fault_experiment.result)) ->
      Text_table.add_row t
        [
          pct intensity;
          pct (Fault_experiment.goodput_ratio r);
          Text_table.cell_f (eventual_p99_us r);
          Text_table.cell_i (Metrics.retries r.metrics);
          Text_table.cell_i (Metrics.timeout_drops r.metrics);
          Text_table.cell_i r.lost;
          Text_table.cell_i r.stranded;
        ])
    (goodput_points ~quick ~system ~workload ());
  t

(* The same stall plan replayed against all three systems. *)
let compare_systems ?(quick = false) ~workload () =
  let duration_ns = Harness.duration_ms (if quick then 4.0 else 10.0) in
  let cores = 16 in
  let rate_rps = 0.7 *. Arrivals.capacity_rps ~cores workload in
  let systems =
    [
      ("tq", Presets.tq ~cores ());
      ( "shinjuku",
        Presets.shinjuku ~cores
          ~quantum_ns:(Presets.shinjuku_quantum_for workload.Service_dist.name) () );
      ("caladan-dp", Presets.caladan ~cores ~mode:Tq_sched.Caladan.Directpath ());
    ]
  in
  let intensities = if quick then [ 0.0; 0.2 ] else [ 0.0; 0.05; 0.2 ] in
  let t =
    Text_table.create
      ~title:
        (Printf.sprintf "Faults: TQ vs baselines under core stalls (%s, 70%% load)"
           workload.Service_dist.name)
      ~columns:[ "system"; "stall %"; "goodput %"; "event p99(us)"; "lost" ]
  in
  List.iter
    (fun (name, system) ->
      List.iter
        (fun intensity ->
          let config =
            base_config ~workload ~rate_rps ~duration_ns ~faults:(stall_plan ~intensity)
          in
          let r = Fault_experiment.run ~system ~workload config in
          Text_table.add_row t
            [
              name;
              pct intensity;
              pct (Fault_experiment.goodput_ratio r);
              Text_table.cell_f (eventual_p99_us r);
              Text_table.cell_i r.lost;
            ])
        intensities)
    systems;
  t

(* One of [cores] workers permanently fails mid-run: with health
   tracking the dispatcher routes around it and re-dispatches its
   queue; without, jobs strand on the dead core. *)
let kill_recovery ?(quick = false) ~workload () =
  let duration_ns = Harness.duration_ms (if quick then 4.0 else 10.0) in
  let cores = 16 in
  let rate_rps = 0.7 *. Arrivals.capacity_rps ~cores workload in
  let faults = [ Plan.Kill { wid = 3; at_ns = duration_ns / 3 } ] in
  let t =
    Text_table.create
      ~title:
        (Printf.sprintf
           "Faults: 1 of %d cores fails at t=%.0f%% (tq, %s, 70%% load)" cores
           (100.0 /. 3.0) workload.Service_dist.name)
      ~columns:
        [ "handling"; "goodput %"; "event p99(us)"; "lost"; "redispatch"; "stranded" ]
  in
  List.iter
    (fun (label, health) ->
      let config =
        {
          (base_config ~workload ~rate_rps ~duration_ns ~faults) with
          health_interval_ns = health;
        }
      in
      let r = Fault_experiment.run ~system:(Presets.tq ~cores ()) ~workload config in
      let redispatches =
        match r.acct with Some a -> a.Two_level.redispatches | None -> 0
      in
      Text_table.add_row t
        [
          label;
          pct (Fault_experiment.goodput_ratio r);
          Text_table.cell_f (eventual_p99_us r);
          Text_table.cell_i r.lost;
          Text_table.cell_i redispatches;
          Text_table.cell_i r.stranded;
        ])
    [ ("health-tracking", Some 20_000); ("none", None) ];
  t

(* Offered load swept past saturation, with and without admission
   control: shedding the excess keeps admitted requests fast, so
   goodput holds near peak instead of collapsing. *)
let admission_overload ?(quick = false) ~workload () =
  let duration_ns = Harness.duration_ms (if quick then 4.0 else 10.0) in
  let cores = 16 in
  let capacity = Arrivals.capacity_rps ~cores workload in
  let loads = if quick then [ 0.7; 1.2 ] else [ 0.7; 0.9; 1.1; 1.3; 1.5 ] in
  let policies =
    [
      ("accept-all", Admission.Accept_all);
      ("queue-limit", Admission.Queue_limit { max_in_system = 4 * cores });
    ]
  in
  let t =
    Text_table.create
      ~title:
        (Printf.sprintf "Faults: overload protection by admission control (tq, %s)"
           workload.Service_dist.name)
      ~columns:[ "load %"; "admission"; "goodput(Mrps)"; "shed %"; "event p99(us)" ]
  in
  List.iter
    (fun load ->
      List.iter
        (fun (label, policy) ->
          let config =
            {
              (base_config ~workload ~rate_rps:(load *. capacity) ~duration_ns ~faults:[]) with
              admission = policy;
            }
          in
          let r = Fault_experiment.run ~system:(Presets.tq ~cores ()) ~workload config in
          (* Retries re-submit shed requests, so rejections are per
             attempt, not per request. *)
          let attempts = max r.offered (Metrics.attempts r.metrics) in
          let shed =
            if attempts = 0 then 0.0
            else float_of_int (Metrics.rejections r.metrics) /. float_of_int attempts
          in
          Text_table.add_row t
            [
              pct load;
              label;
              Printf.sprintf "%.2f" (r.goodput_rps /. 1e6);
              pct shed;
              Text_table.cell_f (eventual_p99_us r);
            ])
        policies)
    loads;
  t

let sweep ?(quick = false) ~system ~system_name ~workload () =
  [
    degradation ~quick ~system ~system_name ~workload ();
    compare_systems ~quick ~workload ();
    kill_recovery ~quick ~workload ();
    admission_overload ~quick ~workload ();
  ]

(* Registry entry points: a representative workload and the TQ system,
   one table per function so the parallel sweep can shard them. *)
let registry_workload = Tq_workload.Table1.high_bimodal

let faults_degradation () =
  degradation ~system:(Presets.tq ()) ~system_name:"tq" ~workload:registry_workload ()

let faults_compare () = compare_systems ~workload:registry_workload ()
let faults_kill () = kill_recovery ~workload:registry_workload ()
let faults_admission () = admission_overload ~workload:registry_workload ()

let faults () =
  [ faults_degradation (); faults_compare (); faults_kill (); faults_admission () ]
