(* Closed-loop control vs static knobs (tq_sim adaptive): the
   Tq_control feedback controller — retuning per-class quanta and the
   admission limit live — against every static quantum setting, under
   the two conditions that punish static tuning: heavy core stalls
   (capacity loss) and sustained overload.  Goodput-under-deadline is
   the scoreboard, as in Faults; the adaptive-minus-best-static margin
   per scenario is the number the test suite gates on. *)

module Arrivals = Tq_workload.Arrivals
module Service_dist = Tq_workload.Service_dist
module Metrics = Tq_workload.Metrics
module Retry = Tq_workload.Retry
module Text_table = Tq_util.Text_table
module Presets = Tq_sched.Presets
module Admission = Tq_sched.Admission
module Plan = Tq_fault.Plan
module Fault_experiment = Tq_fault.Fault_experiment
module Controller = Tq_control.Controller

let cores = 16

(* Same client tuning rule as Faults: timeout past the slowest class,
   deadline past a full retry cycle. *)
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

(* The controller judges lateness at half the client retry timeout:
   once sojourns cross the timeout, clients resubmit and the duplicate
   work erases real capacity, so the loop must correct well before
   that cliff — not merely before the (much later) goodput deadline.
   The quantum ceiling stays modest: past a few microseconds the
   preemption savings are spent, and long quanta only add sojourn
   variance for the short classes sharing the core. *)
let controller_config ~retry_timeout_ns ~quantum_initial_ns =
  {
    (Controller.default_config ~quantum_initial_ns ~shed_initial:(16 * cores)) with
    Controller.interval_ns = 50_000;
    objective =
      {
        Tq_obs.Slo.name = "adaptive";
        latency_ns = retry_timeout_ns / 2;
        goodput = 0.95;
      };
    quantum_max_ns = 5_000;
    shed_min = cores;
    shed_max = 4096;
  }

type scenario = {
  scenario : string;  (** "stall" or "overload" *)
  load : float;  (** offered load as a fraction of capacity *)
  stall_intensity : float;
}

let scenarios = [
  { scenario = "stall"; load = 0.8; stall_intensity = 0.3 };
  { scenario = "overload"; load = 1.3; stall_intensity = 0.0 };
]

type row = {
  label : string;
  gated : bool;  (** participates in the adaptive-vs-static comparison *)
  adaptive : bool;
  result : Fault_experiment.result;
}

type outcome = {
  spec : scenario;
  rows : row list;
  adaptive_ratio : float;
  best_static_ratio : float;
  margin : float;  (** adaptive - best static; >= 0 is the gate *)
}

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

let run_scenario ?(quick = false) ~workload spec =
  let duration_ns = Harness.duration_ms (if quick then 4.0 else 10.0) in
  let retry, deadline_ns = tuning workload in
  let rate_rps = spec.load *. Arrivals.capacity_rps ~cores workload in
  let faults = stall_plan ~intensity:spec.stall_intensity in
  let base =
    {
      (Fault_experiment.default_config ~rate_rps ~duration_ns) with
      Fault_experiment.faults;
      retry = Some retry;
      deadline_ns;
    }
  in
  let run ~quantum_ns config =
    Fault_experiment.run
      ~system:(Presets.tq ~cores ~quantum_ns ())
      ~workload config
  in
  let static_quanta_us = if quick then [ 1.0; 5.0 ] else [ 1.0; 2.0; 5.0; 10.0 ] in
  let static_rows =
    List.map
      (fun q_us ->
        let quantum_ns = int_of_float (q_us *. 1e3) in
        {
          label = Printf.sprintf "static-%gus" q_us;
          gated = true;
          adaptive = false;
          result = run ~quantum_ns base;
        })
      static_quanta_us
  in
  (* Context row: a hand-tuned static queue limit, to show how much of
     the adaptive win is shedding alone.  Not part of the gate — the
     point of the controller is that nobody has to find this number. *)
  let tuned_row =
    {
      label = "static-2us+limit";
      gated = false;
      adaptive = false;
      result =
        run ~quantum_ns:2_000
          { base with Fault_experiment.admission =
              Admission.Queue_limit { max_in_system = 4 * cores } };
    }
  in
  let adaptive_row =
    let quantum_initial_ns = 2_000 in
    {
      label = "adaptive";
      gated = true;
      adaptive = true;
      result =
        run ~quantum_ns:quantum_initial_ns
          { base with Fault_experiment.controller =
              Some
                (controller_config ~retry_timeout_ns:retry.Retry.timeout_ns
                   ~quantum_initial_ns) };
    }
  in
  let rows = static_rows @ [ tuned_row; adaptive_row ] in
  let ratio r = Fault_experiment.goodput_ratio r.result in
  let adaptive_ratio = ratio adaptive_row in
  let best_static_ratio =
    List.fold_left
      (fun acc r -> if r.gated && not r.adaptive then Float.max acc (ratio r) else acc)
      0.0 rows
  in
  { spec; rows; adaptive_ratio; best_static_ratio; margin = adaptive_ratio -. best_static_ratio }

let run_all ?(quick = false) ~workload () =
  List.map (run_scenario ~quick ~workload) scenarios

let eventual_p99_us (r : Fault_experiment.result) =
  Metrics.overall_eventual_percentile r.metrics 99.0 /. 1e3

let table (o : outcome) =
  let t =
    Text_table.create
      ~title:
        (Printf.sprintf
           "Adaptive control vs static knobs (%s: %.0f%% load, %.0f%% stalls)"
           o.spec.scenario (100.0 *. o.spec.load) (100.0 *. o.spec.stall_intensity))
      ~columns:
        [ "setting"; "goodput %"; "event p99(us)"; "shed"; "ticks"; "decisions" ]
  in
  List.iter
    (fun row ->
      let r = row.result in
      Text_table.add_row t
        [
          row.label;
          Printf.sprintf "%.1f" (100.0 *. Fault_experiment.goodput_ratio r);
          Text_table.cell_f (eventual_p99_us r);
          Text_table.cell_i (Metrics.rejections r.metrics);
          Text_table.cell_i r.control_ticks;
          Text_table.cell_i r.control_decisions;
        ])
    o.rows;
  t

let registry_workload = Tq_workload.Table1.high_bimodal
let adaptive_stall () = table (run_scenario ~workload:registry_workload (List.nth scenarios 0))
let adaptive_overload () =
  table (run_scenario ~workload:registry_workload (List.nth scenarios 1))
