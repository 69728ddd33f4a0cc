(* Tests for tq_workload: distributions, Table 1 specs, arrivals, metrics. *)

module Service_dist = Tq_workload.Service_dist
module Table1 = Tq_workload.Table1
module Arrivals = Tq_workload.Arrivals
module Metrics = Tq_workload.Metrics
module Sim = Tq_engine.Sim
module Prng = Tq_util.Prng
module Time_unit = Tq_util.Time_unit

(* An arrival's draw: its class, then its service time. *)
let sample w rng =
  let class_idx = Service_dist.sample_class w rng in
  (class_idx, Service_dist.sample_service_ns w ~class_idx rng)

let check = Alcotest.check

let test_make_validates_ratios () =
  Alcotest.(check bool) "bad ratios rejected" true
    (try
       ignore
         (Service_dist.make ~name:"bad"
            [ { class_name = "a"; ratio = 0.5; sampler = Fixed 1 } ]);
       false
     with Invalid_argument _ -> true)

let test_mean_service () =
  (* Extreme bimodal (sim): 0.995*0.5us + 0.005*500us = 2.9975us. *)
  let m = Service_dist.mean_service_ns Table1.extreme_bimodal_sim in
  check (Alcotest.float 0.01) "extreme-bimodal-sim mean" 2997.5 m;
  let m = Service_dist.mean_service_ns Table1.high_bimodal in
  check (Alcotest.float 0.01) "high-bimodal mean" 50_500.0 m;
  let m = Service_dist.mean_service_ns Table1.exp1 in
  check (Alcotest.float 0.01) "exp1 mean" 1_000.0 m

let test_tpcc_mean () =
  (* 0.44*5.7 + 0.04*6 + 0.44*20 + 0.04*88 + 0.04*100 us *)
  let expected = ((0.44 *. 5.7) +. (0.04 *. 6.0) +. (0.44 *. 20.0) +. (0.04 *. 88.0) +. (0.04 *. 100.0)) *. 1000.0 in
  check (Alcotest.float 0.5) "tpcc mean" expected
    (Service_dist.mean_service_ns Table1.tpcc)

let test_dispersion_ratio () =
  let r = Service_dist.dispersion_ratio Table1.extreme_bimodal_sim in
  check (Alcotest.float 1e-6) "dispersion 1000" 1000.0 r

let test_sampling_ratios () =
  let rng = Prng.create ~seed:5L in
  let n = 200_000 in
  let long = ref 0 in
  for _ = 1 to n do
    let idx, service = sample Table1.extreme_bimodal_sim rng in
    if idx = 1 then begin
      incr long;
      check Alcotest.int "long service" (Time_unit.us 500.0) service
    end
    else check Alcotest.int "short service" (Time_unit.us 0.5) service
  done;
  let f = float_of_int !long /. float_of_int n in
  Alcotest.(check bool) "long ratio ~0.5%" true (Float.abs (f -. 0.005) < 0.002)

let test_exponential_sampling_mean () =
  let rng = Prng.create ~seed:7L in
  let n = 100_000 in
  let sum = ref 0 in
  for _ = 1 to n do
    let _, s = sample Table1.exp1 rng in
    sum := !sum + s
  done;
  let mean = float_of_int !sum /. float_of_int n in
  Alcotest.(check bool) "sampled mean ~1us" true (Float.abs (mean -. 1000.0) < 20.0)

let test_find_by_name () =
  Alcotest.(check bool) "finds tpcc" true (Table1.find "tpcc" <> None);
  Alcotest.(check bool) "unknown none" true (Table1.find "nope" = None);
  check Alcotest.int "all six workloads" 6 (List.length Table1.all)

let test_lognormal_mean () =
  let s = Service_dist.Lognormal { median_ns = 1000.0; sigma = 0.5 } in
  check (Alcotest.float 1.0) "lognormal mean formula"
    (1000.0 *. exp 0.125)
    (Service_dist.sampler_mean_ns s)

let test_arrivals_rate () =
  let sim = Sim.create () in
  let rng = Prng.create ~seed:11L in
  let count = ref 0 in
  let issued =
    Arrivals.install sim ~rng ~workload:Table1.exp1 ~rate_rps:1_000_000.0
      ~duration_ns:(Time_unit.ms 50.0) ~sink:(fun _ -> incr count)
  in
  Sim.run sim;
  check Alcotest.int "sink saw every request" !issued !count;
  (* Expect ~50_000 arrivals; Poisson sd ~224. *)
  Alcotest.(check bool) "close to expected count" true
    (abs (!count - 50_000) < 1_500)

let test_arrivals_monotone_ids () =
  let sim = Sim.create () in
  let rng = Prng.create ~seed:13L in
  let last_id = ref 0 and last_t = ref 0 in
  ignore
    (Arrivals.install sim ~rng ~workload:Table1.exp1 ~rate_rps:100_000.0
       ~duration_ns:(Time_unit.ms 10.0) ~sink:(fun r ->
           Alcotest.(check bool) "ids increase" true (r.req_id = !last_id + 1);
           Alcotest.(check bool) "time monotone" true (r.arrival_ns >= !last_t);
           last_id := r.req_id;
           last_t := r.arrival_ns));
  Sim.run sim

let test_capacity () =
  (* exp1: mean 1us -> 16 cores serve 16 Mrps. *)
  check (Alcotest.float 1.0) "capacity" 16_000_000.0
    (Arrivals.capacity_rps ~cores:16 Table1.exp1)

let test_metrics_warmup_discard () =
  let m = Metrics.create ~workload:Table1.exp1 ~warmup_ns:1000 in
  Metrics.record m ~class_idx:0 ~arrival_ns:500 ~finish_ns:600 ~service_ns:100;
  check Alcotest.int "warmup discarded" 0 (Metrics.completed m ~class_idx:0);
  Metrics.record m ~class_idx:0 ~arrival_ns:1500 ~finish_ns:1700 ~service_ns:100;
  check Alcotest.int "recorded" 1 (Metrics.completed m ~class_idx:0);
  check (Alcotest.float 1e-9) "sojourn" 200.0 (Metrics.sojourn_percentile m ~class_idx:0 50.0);
  check (Alcotest.float 1e-9) "slowdown" 2.0 (Metrics.slowdown_percentile m ~class_idx:0 50.0)

let test_metrics_per_class () =
  let m = Metrics.create ~workload:Table1.extreme_bimodal_sim ~warmup_ns:0 in
  Metrics.record m ~class_idx:0 ~arrival_ns:0 ~finish_ns:100 ~service_ns:100;
  Metrics.record m ~class_idx:1 ~arrival_ns:0 ~finish_ns:1000 ~service_ns:100;
  check Alcotest.int "class counts" 1 (Metrics.completed m ~class_idx:0);
  check Alcotest.int "total" 2 (Metrics.total_completed m);
  check (Alcotest.float 1e-9) "overall p100 sojourn" 1000.0
    (Metrics.overall_sojourn_percentile m 100.0);
  check (Alcotest.float 1e-9) "overall p100 slowdown" 10.0
    (Metrics.overall_slowdown_percentile m 100.0);
  check Alcotest.string "class name" "Long" (Metrics.class_name m 1)

let test_metrics_rejects_bad_record () =
  let m = Metrics.create ~workload:Table1.exp1 ~warmup_ns:0 in
  Alcotest.check_raises "finish < arrival"
    (Invalid_argument "Metrics.record: finish before arrival") (fun () ->
      Metrics.record m ~class_idx:0 ~arrival_ns:100 ~finish_ns:50 ~service_ns:10)

(* A two-class run of 6,000 requests, 499 of them inside the warm-up,
   recorded into [Metrics] and into per-class sets here.  The reference
   merges the old way: sort each class, re-add, sort again. *)
let test_metrics_overall_matches_reference () =
  let module S = Tq_stats.Sample_set in
  let w = Table1.extreme_bimodal_sim and warmup_ns = 50_000 in
  let m = Metrics.create ~workload:w ~warmup_ns in
  let sets () = Array.init (Service_dist.class_count w) (fun _ -> S.create ()) in
  let sojourn = sets () and slowdown = sets () and eventual = sets () in
  let rng = Prng.create ~seed:37L in
  for i = 1 to 6_000 do
    let class_idx, service_ns = sample w rng in
    let arrival_ns = i * 100 in
    let finish_ns = arrival_ns + service_ns + Prng.int rng 20_000 in
    let eventual_ns = finish_ns + (Prng.int rng 3 * 10_000) in
    Metrics.record m ~class_idx ~arrival_ns ~finish_ns ~service_ns;
    Metrics.record_eventual m ~class_idx ~arrival_ns ~finish_ns:eventual_ns;
    if arrival_ns >= warmup_ns then begin
      let s = float_of_int (finish_ns - arrival_ns) in
      S.add sojourn.(class_idx) s;
      S.add slowdown.(class_idx) (s /. float_of_int (Int.max 1 service_ns));
      S.add eventual.(class_idx) (float_of_int (eventual_ns - arrival_ns))
    end
  done;
  let sorted sets = Array.concat (Array.to_list (Array.map S.to_sorted_array sets)) in
  let reference sets p =
    let all = S.create () in
    Array.iter (S.add all) (sorted sets);
    S.percentile all p
  in
  check Alcotest.int "post-warm-up requests" 5_501 (Metrics.total_completed m);
  List.iter
    (fun p ->
      let same what sets got =
        check (Alcotest.float 0.0) (Printf.sprintf "overall %s p%g" what p) (reference sets p) got
      in
      same "sojourn" sojourn (Metrics.overall_sojourn_percentile m p);
      same "slowdown" slowdown (Metrics.overall_slowdown_percentile m p);
      same "eventual" eventual (Metrics.overall_eventual_percentile m p))
    [ 0.0; 1.0; 50.0; 90.0; 99.0; 99.9; 100.0 ];
  List.iter
    (fun d ->
      let within = Array.fold_left (fun n v -> if v <= float_of_int d then n + 1 else n) 0 in
      check Alcotest.int (Printf.sprintf "goodput within %d ns" d) (within (sorted eventual))
        (Metrics.goodput_within m ~deadline_ns:d))
    [ 0; 5_000; 20_000; 40_000; max_int ]

let suite =
  [
    Alcotest.test_case "make validates ratios" `Quick test_make_validates_ratios;
    Alcotest.test_case "mean service" `Quick test_mean_service;
    Alcotest.test_case "tpcc mean" `Quick test_tpcc_mean;
    Alcotest.test_case "dispersion ratio" `Quick test_dispersion_ratio;
    Alcotest.test_case "sampling ratios" `Quick test_sampling_ratios;
    Alcotest.test_case "exp sampling mean" `Quick test_exponential_sampling_mean;
    Alcotest.test_case "find by name" `Quick test_find_by_name;
    Alcotest.test_case "lognormal mean" `Quick test_lognormal_mean;
    Alcotest.test_case "arrivals rate" `Quick test_arrivals_rate;
    Alcotest.test_case "arrivals monotone" `Quick test_arrivals_monotone_ids;
    Alcotest.test_case "capacity" `Quick test_capacity;
    Alcotest.test_case "metrics warmup" `Quick test_metrics_warmup_discard;
    Alcotest.test_case "metrics per class" `Quick test_metrics_per_class;
    Alcotest.test_case "metrics rejects bad record" `Quick test_metrics_rejects_bad_record;
    Alcotest.test_case "metrics overall percentiles match a re-sorted merge" `Quick
      test_metrics_overall_matches_reference;
  ]

(* --- Empirical distribution --- *)

let test_empirical_sampler () =
  let trace = [| 100; 200; 300; 400 |] in
  let w =
    Service_dist.make ~name:"trace"
      [ { class_name = "traced"; ratio = 1.0; sampler = Empirical trace } ]
  in
  check (Alcotest.float 1e-9) "mean of trace" 250.0 (Service_dist.mean_service_ns w);
  let rng = Prng.create ~seed:21L in
  for _ = 1 to 1_000 do
    let _, s = sample w rng in
    Alcotest.(check bool) "sample from trace" true (Array.mem s trace)
  done

let test_empirical_uniform_frequencies () =
  let trace = [| 1; 2 |] in
  let w =
    Service_dist.make ~name:"trace"
      [ { class_name = "t"; ratio = 1.0; sampler = Empirical trace } ]
  in
  let rng = Prng.create ~seed:23L in
  let ones = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    let _, s = sample w rng in
    if s = 1 then incr ones
  done;
  let f = float_of_int !ones /. float_of_int n in
  Alcotest.(check bool) "roughly half" true (Float.abs (f -. 0.5) < 0.02)

let empirical_suite =
  [
    Alcotest.test_case "empirical sampler" `Quick test_empirical_sampler;
    Alcotest.test_case "empirical frequencies" `Quick test_empirical_uniform_frequencies;
  ]

let suite = suite @ empirical_suite
