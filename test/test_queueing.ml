(* Tests for tq_queueing — and simulator-vs-theory validation: the DES
   scheduling models must agree with the closed-form results. *)

module Q = Queueing
module Sim = Tq_engine.Sim
module Prng = Tq_util.Prng
module Time_unit = Tq_util.Time_unit
module Service_dist = Tq_workload.Service_dist
module Arrivals = Tq_workload.Arrivals
module Metrics = Tq_workload.Metrics
module Experiment = Tq_sched.Experiment
module Centralized = Tq_sched.Centralized

let check = Alcotest.check

(* --- formulas --- *)

let test_utilization () =
  check (Alcotest.float 1e-9) "rho" 0.5 (Q.utilization ~lambda:8.0 ~mu:2.0 ~servers:8)

let test_mm1_formulas () =
  (* lambda=0.8, mu=1: rho=0.8, L=4, T=5. *)
  check (Alcotest.float 1e-9) "mean jobs" 4.0 (Q.mm1_mean_jobs ~lambda:0.8 ~mu:1.0);
  check (Alcotest.float 1e-9) "mean sojourn" 5.0 (Q.mm1_mean_sojourn ~lambda:0.8 ~mu:1.0);
  check (Alcotest.float 1e-6) "median" (5.0 *. log 2.0)
    (Q.mm1_sojourn_quantile ~lambda:0.8 ~mu:1.0 ~p:0.5)

let test_mm1_rejects_overload () =
  Alcotest.(check bool) "rho >= 1 rejected" true
    (try
       ignore (Q.mm1_mean_jobs ~lambda:2.0 ~mu:1.0);
       false
     with Invalid_argument _ -> true)

let test_erlang_c_reduces_to_mm1 () =
  (* With one server, Erlang C = rho. *)
  check (Alcotest.float 1e-9) "C(1, rho) = rho" 0.7 (Q.erlang_c ~lambda:0.7 ~mu:1.0 ~servers:1)

let test_erlang_c_known_value () =
  (* Classic table value: a = 8 Erlang offered on 10 servers ->
     C ~ 0.409. *)
  let c = Q.erlang_c ~lambda:8.0 ~mu:1.0 ~servers:10 in
  Alcotest.(check bool) (Printf.sprintf "C=%.4f" c) true (Float.abs (c -. 0.409) < 0.005)

let test_mmk_wait_below_mm1 () =
  (* Pooling helps: M/M/4 at the same rho waits less than M/M/1. *)
  let mm1 = Q.mmk_mean_wait ~lambda:0.8 ~mu:1.0 ~servers:1 in
  let mm4 = Q.mmk_mean_wait ~lambda:3.2 ~mu:1.0 ~servers:4 in
  Alcotest.(check bool) "pooled wait smaller" true (mm4 < mm1)

let test_mg1_exponential_matches_mm1 () =
  (* Exponential service: E[S^2] = 2/mu^2 -> P-K equals M/M/1. *)
  let mu = 1.0 and lambda = 0.6 in
  let pk = Q.mg1_mean_sojourn ~lambda ~mean_service:(1.0 /. mu) ~second_moment:2.0 in
  check (Alcotest.float 1e-9) "P-K = M/M/1" (Q.mm1_mean_sojourn ~lambda ~mu) pk

let test_mg1_deterministic_halves_wait () =
  (* Deterministic service: E[S^2] = E[S]^2 -> half the M/M/1 wait. *)
  let md1 = Q.mg1_mean_wait ~lambda:0.8 ~mean_service:1.0 ~second_moment:1.0 in
  let mm1 = Q.mg1_mean_wait ~lambda:0.8 ~mean_service:1.0 ~second_moment:2.0 in
  check (Alcotest.float 1e-9) "M/D/1 = M/M/1 / 2" (mm1 /. 2.0) md1

let test_ps_slowdown () =
  check (Alcotest.float 1e-9) "1/(1-rho)" 4.0 (Q.ps_expected_slowdown ~rho:0.75);
  check (Alcotest.float 1e-9) "sojourn linear in x" 8.0
    (Q.mm1_ps_mean_sojourn_for ~lambda:0.75 ~mu:1.0 ~x:2.0)

(* --- simulator vs theory --- *)

(* An M/M/k FCFS system: ideal centralized scheduler, run-to-completion. *)
let simulate_mmk ~servers ~rho ~mean_service_ns =
  let workload =
    Service_dist.make ~name:"mm"
      [
        {
          class_name = "exp";
          ratio = 1.0;
          sampler = Service_dist.Exponential (float_of_int mean_service_ns);
        };
      ]
  in
  let mu = 1e9 /. float_of_int mean_service_ns in
  let lambda = rho *. mu *. float_of_int servers in
  let config =
    { (Centralized.ideal_config ~quantum_ns:0 ~cores:servers) with quantum_ns = None }
  in
  let r =
    Experiment.run ~seed:97L ~system:(Experiment.Centralized config) ~workload
      ~rate_rps:lambda ~duration_ns:(Time_unit.ms 400.0) ()
  in
  (lambda, mu, Metrics.mean_sojourn r.metrics ~class_idx:0)

let test_sim_matches_mm1 () =
  let lambda, mu, measured = simulate_mmk ~servers:1 ~rho:0.7 ~mean_service_ns:1_000 in
  let predicted = Q.mm1_mean_sojourn ~lambda:(lambda /. 1e9) ~mu:(mu /. 1e9) in
  Alcotest.(check bool)
    (Printf.sprintf "M/M/1 sojourn: sim %.0fns vs theory %.0fns" measured predicted)
    true
    (Float.abs (measured -. predicted) /. predicted < 0.08)

let test_sim_matches_mmk () =
  let servers = 8 in
  let lambda, mu, measured = simulate_mmk ~servers ~rho:0.8 ~mean_service_ns:1_000 in
  let predicted =
    Q.mmk_mean_sojourn ~lambda:(lambda /. 1e9) ~mu:(mu /. 1e9) ~servers
  in
  Alcotest.(check bool)
    (Printf.sprintf "M/M/8 sojourn: sim %.0fns vs theory %.0fns" measured predicted)
    true
    (Float.abs (measured -. predicted) /. predicted < 0.08)

let test_sim_matches_mg1_bimodal () =
  (* Deterministic bimodal service on one FCFS server vs P-K. *)
  let short = 1_000 and long = 10_000 in
  let workload =
    Service_dist.make ~name:"bimodal"
      [
        { class_name = "s"; ratio = 0.9; sampler = Service_dist.Fixed short };
        { class_name = "l"; ratio = 0.1; sampler = Service_dist.Fixed long };
      ]
  in
  let mean_service = (0.9 *. float_of_int short) +. (0.1 *. float_of_int long) in
  let second_moment =
    (0.9 *. float_of_int short *. float_of_int short)
    +. (0.1 *. float_of_int long *. float_of_int long)
  in
  let rho = 0.7 in
  let lambda_ns = rho /. mean_service in
  let config =
    { (Centralized.ideal_config ~quantum_ns:0 ~cores:1) with quantum_ns = None }
  in
  let r =
    Experiment.run ~seed:91L ~system:(Experiment.Centralized config) ~workload
      ~rate_rps:(lambda_ns *. 1e9) ~duration_ns:(Time_unit.ms 400.0) ()
  in
  let measured = Metrics.overall_sojourn_percentile r.metrics 50.0 in
  ignore measured;
  let measured_mean =
    (0.9 *. Metrics.mean_sojourn r.metrics ~class_idx:0)
    +. (0.1 *. Metrics.mean_sojourn r.metrics ~class_idx:1)
  in
  let predicted = Q.mg1_mean_sojourn ~lambda:lambda_ns ~mean_service ~second_moment in
  Alcotest.(check bool)
    (Printf.sprintf "M/G/1 sojourn: sim %.0fns vs P-K %.0fns" measured_mean predicted)
    true
    (Float.abs (measured_mean -. predicted) /. predicted < 0.08)

let test_sim_ps_slowdown_uniform () =
  (* PS on one core: expected slowdown 1/(1-rho) for both classes. *)
  let workload =
    Service_dist.make ~name:"bimodal"
      [
        { class_name = "s"; ratio = 0.9; sampler = Service_dist.Fixed 1_000 };
        { class_name = "l"; ratio = 0.1; sampler = Service_dist.Fixed 10_000 };
      ]
  in
  let rho = 0.6 in
  let mean_service = 1_900.0 in
  let config = Centralized.ideal_config ~quantum_ns:100 ~cores:1 in
  let r =
    Experiment.run ~seed:93L ~system:(Experiment.Centralized config) ~workload
      ~rate_rps:(rho /. mean_service *. 1e9) ~duration_ns:(Time_unit.ms 300.0) ()
  in
  let predicted = Q.ps_expected_slowdown ~rho in
  let mean_slowdown cls =
    Metrics.mean_sojourn r.metrics ~class_idx:cls
    /. float_of_int (if cls = 0 then 1_000 else 10_000)
  in
  (* The PS slowdown property: both classes see ~1/(1-rho), the long
     class slightly less with finite quanta. *)
  Alcotest.(check bool)
    (Printf.sprintf "short slowdown %.2f ~ %.2f" (mean_slowdown 0) predicted)
    true
    (Float.abs (mean_slowdown 0 -. predicted) /. predicted < 0.15);
  Alcotest.(check bool)
    (Printf.sprintf "long slowdown %.2f ~ %.2f" (mean_slowdown 1) predicted)
    true
    (Float.abs (mean_slowdown 1 -. predicted) /. predicted < 0.15)

let suite =
  [
    Alcotest.test_case "utilization" `Quick test_utilization;
    Alcotest.test_case "mm1 formulas" `Quick test_mm1_formulas;
    Alcotest.test_case "mm1 overload rejected" `Quick test_mm1_rejects_overload;
    Alcotest.test_case "erlang c reduces to mm1" `Quick test_erlang_c_reduces_to_mm1;
    Alcotest.test_case "erlang c known value" `Quick test_erlang_c_known_value;
    Alcotest.test_case "mmk pooling" `Quick test_mmk_wait_below_mm1;
    Alcotest.test_case "mg1 exponential = mm1" `Quick test_mg1_exponential_matches_mm1;
    Alcotest.test_case "md1 halves wait" `Quick test_mg1_deterministic_halves_wait;
    Alcotest.test_case "ps slowdown" `Quick test_ps_slowdown;
    Alcotest.test_case "sim vs M/M/1" `Slow test_sim_matches_mm1;
    Alcotest.test_case "sim vs M/M/8" `Slow test_sim_matches_mmk;
    Alcotest.test_case "sim vs M/G/1 (P-K)" `Slow test_sim_matches_mg1_bimodal;
    Alcotest.test_case "sim PS slowdown uniform" `Slow test_sim_ps_slowdown_uniform;
  ]
