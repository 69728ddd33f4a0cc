(* Tests for tq_sched: workers, dispatch policies, the TQ two-level
   system and both baseline models. *)

module Sim = Tq_engine.Sim
module Prng = Tq_util.Prng
module Time_unit = Tq_util.Time_unit
module Table1 = Tq_workload.Table1
module Metrics = Tq_workload.Metrics
module Arrivals = Tq_workload.Arrivals
module Job = Tq_sched.Job
module Worker = Tq_sched.Worker
module Overheads = Tq_sched.Overheads
module Dispatch_policy = Tq_sched.Dispatch_policy
module Two_level = Tq_sched.Two_level
module Centralized = Tq_sched.Centralized
module Caladan = Tq_sched.Caladan
module Experiment = Tq_sched.Experiment
module Presets = Tq_sched.Presets
module System_intf = Tq_sched.System_intf

let check = Alcotest.check

let request ?(req_id = 1) ?(class_idx = 0) ~service_ns ~arrival_ns () =
  { Arrivals.req_id; class_idx; service_ns; arrival_ns }

let job ?req_id ?class_idx ~service_ns ?(arrival_ns = 0) () =
  Job.of_request ~probe_overhead_frac:0.0
    (request ?req_id ?class_idx ~service_ns ~arrival_ns ())

(* --- Job --- *)

let test_job_inflation () =
  let j =
    Job.of_request ~probe_overhead_frac:0.5 (request ~service_ns:1000 ~arrival_ns:0 ())
  in
  check Alcotest.int "remaining inflated" 1500 j.remaining_ns;
  check Alcotest.int "true service kept" 1000 j.service_ns;
  Alcotest.(check bool) "not finished" false (Job.finished j)

(* --- Worker: processor sharing --- *)

let make_worker ?(policy = Worker.Ps { quantum_ns = 1000; per_class_quantum = None })
    ?(overheads = Overheads.zero) sim finished =
  Worker.create sim ~wid:0 ~rng:(Prng.create ~seed:1L) ~policy ~overheads
    ~on_finish:(fun j -> finished := (j.Job.id, Sim.now sim) :: !finished)
    ()

let test_worker_ps_interleaves () =
  let sim = Sim.create () in
  let finished = ref [] in
  let w = make_worker sim finished in
  Worker.note_assigned w;
  Worker.note_assigned w;
  Worker.enqueue w (job ~req_id:1 ~service_ns:10_000 ());
  Worker.enqueue w (job ~req_id:2 ~service_ns:1_000 ());
  Sim.run sim;
  (* PS with 1us quanta: job2 runs its single quantum at [1000,2000);
     job1 finishes after 10 quanta interleaved: at 11000. *)
  check
    Alcotest.(list (pair int int))
    "short job first" [ (2, 2_000); (1, 11_000) ] (List.rev !finished);
  check Alcotest.int "all finished" 0 (Worker.unfinished w);
  check Alcotest.int "finished count" 2 (Worker.finished_jobs w)

let test_worker_fcfs_runs_to_completion () =
  let sim = Sim.create () in
  let finished = ref [] in
  let w = make_worker ~policy:Worker.Fcfs sim finished in
  Worker.enqueue w (job ~req_id:1 ~service_ns:10_000 ());
  Worker.enqueue w (job ~req_id:2 ~service_ns:1_000 ());
  Sim.run sim;
  check
    Alcotest.(list (pair int int))
    "fcfs order" [ (1, 10_000); (2, 11_000) ] (List.rev !finished)

let test_worker_yield_cost () =
  let sim = Sim.create () in
  let finished = ref [] in
  let overheads = { Overheads.zero with yield_ns = 100 } in
  let w = make_worker ~overheads sim finished in
  Worker.enqueue w (job ~req_id:1 ~service_ns:3_000 ());
  Sim.run sim;
  (* Three quanta: two preemptions pay 100ns each, final slice finishes. *)
  check Alcotest.(list (pair int int)) "yield cost added" [ (1, 3_200) ] !finished

let test_worker_finish_cost () =
  let sim = Sim.create () in
  let finished = ref [] in
  let overheads = { Overheads.zero with finish_ns = 60 } in
  let w = make_worker ~overheads sim finished in
  Worker.enqueue w (job ~req_id:1 ~service_ns:500 ());
  Sim.run sim;
  check Alcotest.(list (pair int int)) "finish cost" [ (1, 560) ] !finished

let test_worker_quantum_jitter_bounds () =
  let sim = Sim.create () in
  let finished = ref [] in
  let overheads = { Overheads.zero with quantum_jitter_ns = 200 } in
  let w = make_worker ~overheads sim finished in
  Worker.enqueue w (job ~req_id:1 ~service_ns:10_000 ());
  Sim.run sim;
  (* Jitter only lengthens quanta, so completion happens no later than
     uninstrumented service + 0 (jitter consumes service faster). *)
  let _, t = List.hd !finished in
  Alcotest.(check bool) "finishes at exactly total service" true (t = 10_000)

let test_worker_per_class_quantum () =
  let sim = Sim.create () in
  let finished = ref [] in
  let policy = Worker.Ps { quantum_ns = 1_000; per_class_quantum = Some [| 500; 4_000 |] } in
  let w = make_worker ~policy sim finished in
  Worker.enqueue w (job ~req_id:1 ~class_idx:0 ~service_ns:1_000 ());
  Worker.enqueue w (job ~req_id:2 ~class_idx:1 ~service_ns:4_000 ());
  Sim.run sim;
  (* class0 quantum 500: job1 preempted once. Timeline:
     j1 [0,500) j2 [500,4500) j1 [4500,5000). *)
  check
    Alcotest.(list (pair int int))
    "per-class quanta" [ (2, 4_500); (1, 5_000) ] (List.rev !finished)

let test_worker_serviced_quanta_counter () =
  let sim = Sim.create () in
  let finished = ref [] in
  let w = make_worker sim finished in
  let j = job ~req_id:1 ~service_ns:5_000 () in
  Worker.note_assigned w;
  Worker.enqueue w j;
  Sim.run sim;
  check Alcotest.int "job serviced 5 quanta" 5 j.Job.serviced_quanta;
  check Alcotest.int "current quanta drops on finish" 0 (Worker.current_quanta w)

let test_worker_steal () =
  let sim = Sim.create () in
  let finished = ref [] in
  let w = make_worker ~policy:Worker.Fcfs sim finished in
  Worker.note_assigned w;
  Worker.note_assigned w;
  Worker.enqueue w (job ~req_id:1 ~service_ns:10_000 ());
  Worker.enqueue w (job ~req_id:2 ~service_ns:10_000 ());
  (* Job 1 is in service, job 2 queued: steal takes job 2. *)
  check Alcotest.int "stole queued job" 2 (Worker.steal w).Job.id;
  check Alcotest.int "victim load updated" 1 (Worker.unfinished w);
  check Alcotest.bool "no more to steal" true (Worker.steal w == Job.none);
  check Alcotest.int "an empty steal moves no load" 1 (Worker.unfinished w)

(* --- Dispatch policies --- *)

let all_alive n = Array.make n true

let workers_with_loads sim loads =
  (* Fabricate dispatcher-visible loads via assignment counters. *)
  Array.mapi
    (fun wid load ->
      let w =
        Worker.create sim ~wid ~rng:(Prng.create ~seed:2L)
          ~policy:Worker.Fcfs ~overheads:Overheads.zero ~on_finish:ignore ()
      in
      for _ = 1 to load do
        Worker.note_assigned w
      done;
      w)
    loads

let test_jsq_picks_min () =
  let sim = Sim.create () in
  let workers = workers_with_loads sim [| 3; 1; 2 |] in
  let c = Dispatch_policy.make_chooser Dispatch_policy.Jsq_random ~rng:(Prng.create ~seed:3L) in
  check Alcotest.int "least loaded" 1 (Dispatch_policy.choose c ~alive:(all_alive 3) workers)

let test_msq_tiebreak () =
  let sim = Sim.create () in
  let finished = ref [] in
  (* Two equally loaded workers; the one whose current jobs have serviced
     more quanta must win the tie. *)
  let mk wid service =
    let w =
      Worker.create sim ~wid ~rng:(Prng.create ~seed:4L)
        ~policy:(Worker.Ps { quantum_ns = 1_000; per_class_quantum = None })
        ~overheads:Overheads.zero
        ~on_finish:(fun j -> finished := j.Job.id :: !finished)
        ()
    in
    Worker.note_assigned w;
    Worker.enqueue w (job ~req_id:wid ~service_ns:service ());
    w
  in
  let w0 = mk 0 100_000 and w1 = mk 1 100_000 in
  (* Let w1 accumulate more serviced quanta by feeding it nothing extra
     but running longer: both run the same; instead preload w1's job with
     progress. *)
  Sim.run ~until:5_500 sim;
  (* Both have ~5 quanta; force asymmetry via a second partially-run job. *)
  ignore w0;
  Alcotest.(check bool) "both still busy" true
    (Worker.unfinished w0 = 1 && Worker.unfinished w1 = 1);
  (* Manually bump w1's progress to break the tie deterministically. *)
  let extra = job ~req_id:99 ~service_ns:50_000 () in
  Worker.note_assigned w1;
  Worker.enqueue w1 extra;
  Worker.note_assigned w0;
  Worker.enqueue w0 (job ~req_id:98 ~service_ns:50_000 ());
  Sim.run ~until:50_000 sim;
  let c = Dispatch_policy.make_chooser Dispatch_policy.Jsq_msq ~rng:(Prng.create ~seed:5L) in
  let q0 = Worker.current_quanta w0 and q1 = Worker.current_quanta w1 in
  let expected = if q1 > q0 then 1 else 0 in
  check Alcotest.int "picks max serviced quanta" expected
    (Dispatch_policy.choose c ~alive:(all_alive 2) [| w0; w1 |]);
  (* Five workers: w0 is the most loaded (and has the most quanta);
     w1..w4 tie at least load; w2 and w3 tie at the most quanta among
     them.  Load first, then quanta, then the lower index: w2. *)
  let sim = Sim.create () in
  let mk wid ~load ~running =
    let w =
      Worker.create sim ~wid ~rng:(Prng.create ~seed:4L)
        ~policy:(Worker.Ps { quantum_ns = 1_000; per_class_quantum = None })
        ~overheads:Overheads.zero ~on_finish:ignore ()
    in
    for _ = 1 to load do
      Worker.note_assigned w
    done;
    if running then Worker.enqueue w (job ~req_id:wid ~service_ns:100_000 ());
    w
  in
  let workers =
    [|
      mk 0 ~load:2 ~running:true;
      mk 1 ~load:1 ~running:false;
      mk 2 ~load:1 ~running:true;
      mk 3 ~load:1 ~running:true;
      mk 4 ~load:1 ~running:false;
    |]
  in
  Sim.run ~until:5_500 sim;
  let quanta = Array.map Worker.current_quanta workers in
  Alcotest.(check bool) "w2 and w3 tie above w1 and w4" true
    (quanta.(2) = quanta.(3) && quanta.(2) > quanta.(1) && quanta.(1) = quanta.(4));
  check Alcotest.int "least load, most quanta, lowest index" 2
    (Dispatch_policy.choose c ~alive:(all_alive 5) workers)

let test_msq_allocation_free () =
  let sim = Sim.create () in
  let workers = workers_with_loads sim (Array.make 16 0) in
  let c = Dispatch_policy.make_chooser Dispatch_policy.Jsq_msq ~rng:(Prng.create ~seed:5L) in
  let words alive =
    Test_util.minor_words_per_call (fun () ->
        ignore (Dispatch_policy.choose c ~alive workers : int))
  in
  check (Alcotest.float 0.0) "minor words per choice over 16 idle workers" 0.0
    (words (all_alive 16));
  check (Alcotest.float 0.0) "minor words per choice with dead entries" 0.0
    (words (Array.init 16 (fun i -> i mod 5 <> 2)))

(* Set a worker's dispatcher-visible load to [load]. *)
let set_load w load =
  while Worker.unfinished w < load do
    Worker.note_assigned w
  done;
  while Worker.unfinished w > load do
    Worker.note_unassigned w
  done

(* With every core alive each random policy draws what its formula over
   all n cores draws, so fault-free runs keep their PRNG stream. *)
let test_policy_draws_pinned () =
  let n = 8 in
  let workers = workers_with_loads (Sim.create ()) (Array.make n 0) in
  let load i = Worker.unfinished workers.(i) in
  let reference policy r =
    match policy with
    | Dispatch_policy.Random -> Prng.int r n
    | Dispatch_policy.Power_of_two ->
        let a = Prng.int r n in
        let b = (a + 1 + Prng.int r (n - 1)) mod n in
        if load a < load b then a
        else if load b < load a then b
        else if Prng.bool r then a
        else b
    | Dispatch_policy.Jsq_random -> (
        let best = List.fold_left min max_int (List.init n load) in
        (* the k-th tie counted from the highest index *)
        let ties = List.filter (fun i -> load i = best) (List.init n (fun i -> n - 1 - i)) in
        match ties with [ i ] -> i | _ -> List.nth ties (Prng.int r (List.length ties)))
    | Dispatch_policy.Jsq_msq -> assert false
  in
  List.iter
    (fun (name, policy) ->
      let c = Dispatch_policy.make_chooser policy ~rng:(Prng.create ~seed:31L) in
      let r = Prng.create ~seed:31L and loads = Prng.create ~seed:32L in
      let expected = ref [] and got = ref [] in
      for _ = 1 to 1_000 do
        Array.iter (fun w -> set_load w (Prng.int loads 3)) workers;
        expected := reference policy r :: !expected;
        got := Dispatch_policy.choose c ~alive:(all_alive n) workers :: !got
      done;
      check Alcotest.(list int) (name ^ ": 1,000 seeded draws") !expected !got)
    [
      ("random", Dispatch_policy.Random);
      ("power of two", Dispatch_policy.Power_of_two);
      ("jsq random", Dispatch_policy.Jsq_random);
    ]

(* Any mask with a core alive: every policy names an alive core, the JSQ
   policies a least-loaded one, and JSQ-MSQ (every quanta count 0) the
   lowest of those. *)
let masked_choice_is_alive =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"masked choice is alive and least loaded"
       QCheck.(pair (list_of_size Gen.(int_range 1 16) (pair (int_bound 3) bool)) int)
       (fun (cores, seed) ->
         let n = List.length cores in
         let loads = Array.of_list (List.map fst cores) in
         let alive = Array.of_list (List.map snd cores) in
         alive.(seed land max_int mod n) <- true;
         let workers = workers_with_loads (Sim.create ()) loads in
         let least = ref max_int and lowest = ref (-1) in
         Array.iteri
           (fun i load ->
             if alive.(i) && load < !least then begin
               least := load;
               lowest := i
             end)
           loads;
         List.for_all
           (fun policy ->
             let c = Dispatch_policy.make_chooser policy ~rng:(Prng.create ~seed:(Int64.of_int seed)) in
             List.for_all
               (fun _ ->
                 let i = Dispatch_policy.choose c ~alive workers in
                 alive.(i)
                 &&
                 match policy with
                 | Dispatch_policy.Jsq_msq -> i = !lowest
                 | Dispatch_policy.Jsq_random -> loads.(i) = !least
                 | Dispatch_policy.Random | Dispatch_policy.Power_of_two -> true)
               (List.init 20 Fun.id))
           Dispatch_policy.[ Jsq_msq; Jsq_random; Random; Power_of_two ]))

let test_random_in_range () =
  let sim = Sim.create () in
  let workers = workers_with_loads sim [| 0; 0; 0; 0 |] in
  let c = Dispatch_policy.make_chooser Dispatch_policy.Random ~rng:(Prng.create ~seed:7L) in
  let seen = Array.make 4 false in
  for _ = 1 to 200 do
    let i = Dispatch_policy.choose c ~alive:(all_alive 4) workers in
    Alcotest.(check bool) "in range" true (i >= 0 && i < 4);
    seen.(i) <- true
  done;
  Alcotest.(check bool) "all workers eventually chosen" true (Array.for_all Fun.id seen)

let test_power_of_two_prefers_lighter () =
  let sim = Sim.create () in
  let workers = workers_with_loads sim [| 10; 0 |] in
  let c = Dispatch_policy.make_chooser Dispatch_policy.Power_of_two ~rng:(Prng.create ~seed:8L) in
  for _ = 1 to 50 do
    check Alcotest.int "always the idle one of the pair" 1
      (Dispatch_policy.choose c ~alive:(all_alive 2) workers)
  done

(* --- Two-level system --- *)

let run_system ~system ~workload ~rate_rps ~duration_ns =
  Experiment.run ~seed:11L ~system ~workload ~rate_rps ~duration_ns ()

let test_two_level_conservation () =
  let r =
    run_system ~system:(Presets.tq ()) ~workload:Table1.exp1 ~rate_rps:2_000_000.0
      ~duration_ns:(Time_unit.ms 20.0)
  in
  Alcotest.(check bool) "completions bounded by offered" true
    (Metrics.total_completed r.metrics <= r.offered);
  Alcotest.(check bool) "most post-warmup jobs completed" true
    (float_of_int (Metrics.total_completed r.metrics) > 0.85 *. float_of_int r.offered)

let test_two_level_low_load_latency () =
  (* At 5% load the sojourn of an exp(1us) job should be close to its
     service time: little queueing. *)
  let r =
    run_system ~system:(Presets.tq ()) ~workload:Table1.exp1 ~rate_rps:800_000.0
      ~duration_ns:(Time_unit.ms 20.0)
  in
  let p50 = Metrics.sojourn_percentile r.metrics ~class_idx:0 50.0 in
  Alcotest.(check bool) "p50 sojourn ~ service" true (p50 < 2_500.0)

let test_two_level_short_jobs_protected () =
  (* Extreme bimodal at medium load: short jobs must not be stuck behind
     500us long jobs (that's the whole point of tiny quanta). *)
  let r =
    run_system ~system:(Presets.tq ())
      ~workload:Table1.extreme_bimodal_sim ~rate_rps:2_000_000.0
      ~duration_ns:(Time_unit.ms 40.0)
  in
  let p999 = Metrics.sojourn_percentile r.metrics ~class_idx:0 99.9 in
  Alcotest.(check bool)
    (Printf.sprintf "short p99.9 sojourn %.0fns well under long service" p999)
    true (p999 < 100_000.0)

let test_two_level_fcfs_hol_blocking () =
  (* Same workload under TQ-FCFS: short jobs suffer head-of-line blocking,
     tail far above the preemptive case. *)
  let ps =
    run_system ~system:(Presets.tq ()) ~workload:Table1.extreme_bimodal_sim
      ~rate_rps:2_000_000.0 ~duration_ns:(Time_unit.ms 40.0)
  in
  let fcfs =
    run_system ~system:(Presets.tq_fcfs ()) ~workload:Table1.extreme_bimodal_sim
      ~rate_rps:2_000_000.0 ~duration_ns:(Time_unit.ms 40.0)
  in
  let p_ps = Metrics.sojourn_percentile ps.metrics ~class_idx:0 99.9 in
  let p_fcfs = Metrics.sojourn_percentile fcfs.metrics ~class_idx:0 99.9 in
  Alcotest.(check bool)
    (Printf.sprintf "fcfs tail (%.0f) >> ps tail (%.0f)" p_fcfs p_ps)
    true
    (p_fcfs > 3.0 *. p_ps)

let test_two_level_jsq_beats_random () =
  let jsq =
    run_system ~system:(Presets.tq ()) ~workload:Table1.rocksdb_scan_0_5
      ~rate_rps:2_500_000.0 ~duration_ns:(Time_unit.ms 40.0)
  in
  let rand =
    run_system ~system:(Presets.tq_rand ()) ~workload:Table1.rocksdb_scan_0_5
      ~rate_rps:2_500_000.0 ~duration_ns:(Time_unit.ms 40.0)
  in
  let p_jsq = Metrics.sojourn_percentile jsq.metrics ~class_idx:0 99.9 in
  let p_rand = Metrics.sojourn_percentile rand.metrics ~class_idx:0 99.9 in
  Alcotest.(check bool)
    (Printf.sprintf "random (%.0f) worse than jsq (%.0f)" p_rand p_jsq)
    true (p_rand > p_jsq)

let test_dispatcher_busy_scales_with_jobs_not_quanta () =
  let run quantum_ns =
    run_system
      ~system:(Presets.tq ~quantum_ns ())
      ~workload:Table1.high_bimodal ~rate_rps:200_000.0
      ~duration_ns:(Time_unit.ms 20.0)
  in
  let busy_small = (run 500).dispatcher_busy_ns in
  let busy_large = (run 8_000).dispatcher_busy_ns in
  (* TQ's dispatcher works per job: quantum size must not change load by
     more than sampling noise. *)
  Alcotest.(check bool)
    (Printf.sprintf "dispatcher busy %d vs %d" busy_small busy_large)
    true
    (float_of_int (abs (busy_small - busy_large)) < 0.02 *. float_of_int (max busy_small busy_large + 1))

(* --- Centralized (Shinjuku model) --- *)

let test_centralized_ideal_ps_short_jobs () =
  let r =
    run_system
      ~system:(Experiment.Centralized (Centralized.ideal_config ~quantum_ns:1_000 ~cores:16))
      ~workload:Table1.extreme_bimodal_sim ~rate_rps:2_000_000.0
      ~duration_ns:(Time_unit.ms 40.0)
  in
  let p999 = Metrics.sojourn_percentile r.metrics ~class_idx:0 99.9 in
  Alcotest.(check bool) "ideal centralized PS protects short jobs" true (p999 < 50_000.0)

let test_centralized_preemption_overhead_costs_throughput () =
  let run preempt_ns =
    let config =
      { (Centralized.ideal_config ~quantum_ns:1_000 ~cores:16) with preempt_ns }
    in
    run_system ~system:(Experiment.Centralized config) ~workload:Table1.high_bimodal
      ~rate_rps:280_000.0 ~duration_ns:(Time_unit.ms 30.0)
  in
  let ideal = run 0 and costly = run 1_000 in
  let p_ideal = Metrics.sojourn_percentile ideal.metrics ~class_idx:0 99.9 in
  let p_costly = Metrics.sojourn_percentile costly.metrics ~class_idx:0 99.9 in
  (* 1us overhead per 1us quantum doubles effective work: at ~90% offered
     load the costly system is saturated and its tail explodes. *)
  Alcotest.(check bool)
    (Printf.sprintf "overheads blow up tail: %.0f vs %.0f" p_costly p_ideal)
    true
    (p_costly > 10.0 *. p_ideal)

let test_centralized_dispatcher_gap_grows_with_cores () =
  (* 1ms jobs saturating all cores; sched op 200ns. At 3us quanta and 16
     cores the dispatcher cannot keep up: effective quantum > 1.1x. *)
  let gap cores quantum_ns =
    let sim = Sim.create () in
    let config = Centralized.shinjuku_config ~quantum_ns ~cores in
    let metrics = Metrics.create ~workload:Table1.exp1 ~warmup_ns:0 in
    let t = Centralized.create sim ~rng:(Prng.create ~seed:1L) ~config ~metrics () in
    (* Keep every core busy: 2 jobs per core of 1ms each. *)
    for i = 1 to 2 * cores do
      Centralized.submit t
        (request ~req_id:i ~service_ns:(Time_unit.ms 1.0) ~arrival_ns:0 ())
    done;
    Sim.run sim;
    Centralized.mean_effective_quantum_ns t
  in
  let eff_16 = gap 16 3_000 and eff_8 = gap 8 3_000 in
  Alcotest.(check bool)
    (Printf.sprintf "16 cores overrun (%.0f), 8 cores ok (%.0f)" eff_16 eff_8)
    true
    (eff_16 > 1.1 *. 3_000.0 && eff_8 < 1.1 *. 3_000.0)

let test_centralized_fcfs_mode () =
  let sim = Sim.create () in
  let config =
    { (Centralized.ideal_config ~quantum_ns:0 ~cores:1) with quantum_ns = None }
  in
  let metrics = Metrics.create ~workload:Table1.exp1 ~warmup_ns:0 in
  let t = Centralized.create sim ~rng:(Prng.create ~seed:1L) ~config ~metrics () in
  Centralized.submit t (request ~req_id:1 ~service_ns:1_000 ~arrival_ns:0 ());
  Centralized.submit t (request ~req_id:2 ~service_ns:1_000 ~arrival_ns:0 ());
  Sim.run sim;
  check Alcotest.int "both done" 2 (Metrics.total_completed metrics);
  check (Alcotest.float 1.0) "second waited (fcfs)" 2_000.0
    (Metrics.sojourn_percentile metrics ~class_idx:0 100.0)

(* --- Caladan model --- *)

let test_caladan_work_stealing_balances () =
  (* Two long jobs typically landing anywhere via RSS: stealing must keep
     makespan near one service time, not two. *)
  let sim = Sim.create () in
  let config = Caladan.default_config ~mode:Caladan.Directpath ~cores:2 in
  let metrics = Metrics.create ~workload:Table1.high_bimodal ~warmup_ns:0 in
  let t = Caladan.create sim ~rng:(Prng.create ~seed:3L) ~config ~metrics () in
  Caladan.submit t (request ~req_id:1 ~class_idx:1 ~service_ns:100_000 ~arrival_ns:0 ());
  Caladan.submit t (request ~req_id:2 ~class_idx:1 ~service_ns:100_000 ~arrival_ns:0 ());
  Sim.run sim;
  let makespan = Metrics.sojourn_percentile metrics ~class_idx:1 100.0 in
  Alcotest.(check bool)
    (Printf.sprintf "makespan %.0f ~ one service time" makespan)
    true (makespan < 150_000.0)

let test_caladan_hol_blocking () =
  (* Caladan (FCFS) must show far worse short-job tails than TQ on the
     extreme bimodal workload — the paper's headline comparison. *)
  let cal =
    run_system
      ~system:(Presets.caladan ~mode:Caladan.Directpath ())
      ~workload:Table1.extreme_bimodal_sim ~rate_rps:2_000_000.0
      ~duration_ns:(Time_unit.ms 40.0)
  in
  let tq =
    run_system ~system:(Presets.tq ()) ~workload:Table1.extreme_bimodal_sim
      ~rate_rps:2_000_000.0 ~duration_ns:(Time_unit.ms 40.0)
  in
  let p_cal = Metrics.sojourn_percentile cal.metrics ~class_idx:0 99.9 in
  let p_tq = Metrics.sojourn_percentile tq.metrics ~class_idx:0 99.9 in
  Alcotest.(check bool)
    (Printf.sprintf "caladan short tail %.0f >> tq %.0f" p_cal p_tq)
    true
    (p_cal > 5.0 *. p_tq)

let test_caladan_long_jobs_favored () =
  (* FCFS runs long jobs unpreempted: their latency at medium load should
     beat TQ's PS (which shares the core). *)
  let cal =
    run_system
      ~system:(Presets.caladan ~mode:Caladan.Directpath ())
      ~workload:Table1.extreme_bimodal_sim ~rate_rps:2_000_000.0
      ~duration_ns:(Time_unit.ms 40.0)
  in
  let tq =
    run_system ~system:(Presets.tq ()) ~workload:Table1.extreme_bimodal_sim
      ~rate_rps:2_000_000.0 ~duration_ns:(Time_unit.ms 40.0)
  in
  let p_cal = Metrics.sojourn_percentile cal.metrics ~class_idx:1 99.9 in
  let p_tq = Metrics.sojourn_percentile tq.metrics ~class_idx:1 99.9 in
  Alcotest.(check bool)
    (Printf.sprintf "caladan long tail %.0f < tq %.0f" p_cal p_tq)
    true (p_cal < p_tq)

let test_caladan_iokernel_bottleneck () =
  (* The IOKernel core saturates at ~1/iokernel_op_ns packets/sec. *)
  let r =
    run_system
      ~system:(Presets.caladan ~mode:Caladan.Iokernel ())
      ~workload:Table1.exp1 ~rate_rps:12_000_000.0 ~duration_ns:(Time_unit.ms 10.0)
  in
  (* 12 Mrps offered against ~8.3 Mrps IOKernel capacity: it cannot keep
     up; sojourn tail explodes. *)
  let p99 = Metrics.sojourn_percentile r.metrics ~class_idx:0 99.0 in
  Alcotest.(check bool) "iokernel saturated" true (p99 > 100_000.0)

(* --- Experiment helpers --- *)

let test_throughput_at_low_load () =
  let r =
    run_system ~system:(Presets.tq ()) ~workload:Table1.exp1 ~rate_rps:1_000_000.0
      ~duration_ns:(Time_unit.ms 20.0)
  in
  let tput = Experiment.throughput_rps r in
  Alcotest.(check bool)
    (Printf.sprintf "throughput %.0f ~ offered rate" tput)
    true
    (Float.abs (tput -. 1_000_000.0) /. 1_000_000.0 < 0.1)

let test_max_rate_under_slo () =
  (* Fake runner: SLO satisfied only below 5.0. *)
  let run_at rate =
    let metrics = Metrics.create ~workload:Table1.exp1 ~warmup_ns:0 in
    if rate < 5.0 then
      Metrics.record metrics ~class_idx:0 ~arrival_ns:0 ~finish_ns:10 ~service_ns:10
    else Metrics.record metrics ~class_idx:0 ~arrival_ns:0 ~finish_ns:1000 ~service_ns:10;
    { Experiment.metrics; offered = 1; duration_ns = 10; events = 0; dispatcher_busy_ns = 0; timeseries = None }
  in
  let ok (r : Experiment.result) =
    Metrics.sojourn_percentile r.metrics ~class_idx:0 100.0 < 100.0
  in
  let best =
    Experiment.max_rate_under_slo ~run_at ~rates:[ 1.0; 2.0; 4.0; 6.0; 8.0 ] ~ok
  in
  check (Alcotest.float 1e-9) "largest passing rate" 4.0 best

let test_presets_shinjuku_quanta () =
  check Alcotest.int "bimodal 5us" 5_000 (Presets.shinjuku_quantum_for "extreme-bimodal");
  check Alcotest.int "tpcc 10us" 10_000 (Presets.shinjuku_quantum_for "tpcc");
  check Alcotest.int "rocksdb 15us" 15_000
    (Presets.shinjuku_quantum_for "rocksdb-0.5pct-scan")

(* --- multi-dispatcher diagnostics --- *)

let test_multi_dispatcher_busy_accounting () =
  let sim = Sim.create () in
  let config =
    {
      Two_level.default_config with
      cores = 4;
      dispatchers = 2;
      overheads = { Overheads.zero with dispatch_ns = 100; ring_hop_ns = 10 };
    }
  in
  let metrics = Metrics.create ~workload:Table1.exp1 ~warmup_ns:0 in
  let t = Two_level.create sim ~rng:(Prng.create ~seed:5L) ~config ~metrics () in
  (* req_id mod dispatchers spreads RSS-style: odd ids to dispatcher 1,
     even to dispatcher 0, three jobs each. *)
  for i = 1 to 6 do
    Two_level.submit t (request ~req_id:i ~service_ns:1_000 ~arrival_ns:0 ())
  done;
  Alcotest.(check bool) "work queued at dispatchers" true
    (Two_level.dispatcher_queue_length t > 0);
  Sim.run sim;
  check Alcotest.int "total dispatcher busy = 6 x 100ns" 600
    (Two_level.dispatcher_busy_ns t);
  check Alcotest.int "even split: bottleneck = 3 x 100ns" 300
    (Two_level.max_dispatcher_busy_ns t);
  check Alcotest.int "queues drained" 0 (Two_level.dispatcher_queue_length t);
  check Alcotest.int "all jobs completed" 6 (Metrics.total_completed metrics)

let test_single_dispatcher_max_equals_total () =
  let sim = Sim.create () in
  let config =
    {
      Two_level.default_config with
      cores = 2;
      dispatchers = 1;
      overheads = { Overheads.zero with dispatch_ns = 70 };
    }
  in
  let metrics = Metrics.create ~workload:Table1.exp1 ~warmup_ns:0 in
  let t = Two_level.create sim ~rng:(Prng.create ~seed:5L) ~config ~metrics () in
  for i = 1 to 5 do
    Two_level.submit t (request ~req_id:i ~service_ns:500 ~arrival_ns:0 ())
  done;
  Sim.run sim;
  check Alcotest.int "one dispatcher carries everything" 350
    (Two_level.dispatcher_busy_ns t);
  check Alcotest.int "max = total with one dispatcher"
    (Two_level.dispatcher_busy_ns t)
    (Two_level.max_dispatcher_busy_ns t)

(* --- observability integration --- *)

let test_experiment_obs_integration () =
  let obs = Tq_obs.Obs.create ~sample_interval_ns:100_000 () in
  let r =
    Experiment.run ~obs ~system:(Presets.tq ()) ~workload:Table1.extreme_bimodal_sim
      ~rate_rps:2_000_000.0 ~duration_ns:(Time_unit.ms 2.0) ()
  in
  let spans = obs.Tq_obs.Obs.spans in
  Alcotest.(check bool) "spans recorded" true (Tq_obs.Span.total spans > 0);
  let phases =
    List.sort_uniq compare
      (List.map (fun (rec_ : Tq_obs.Span.record) -> rec_.phase) (Tq_obs.Span.merge spans))
  in
  Alcotest.(check bool)
    (Printf.sprintf "at least 5 phases in the spans (%d)" (List.length phases))
    true
    (List.length phases >= 5);
  let reg = obs.Tq_obs.Obs.counters in
  Alcotest.(check bool) "dispatch decisions counted" true
    (Tq_obs.Counters.find_count reg "dispatch.decisions" > 0);
  Alcotest.(check bool) "worker quanta counted" true
    (Tq_obs.Counters.find_count reg "worker.quanta" > 0);
  Alcotest.(check bool) "completions counted" true
    (Tq_obs.Counters.find_count reg "worker.completions" > 0);
  (match r.timeseries with
  | Some ts ->
      Alcotest.(check bool) "occupancy sampled" true (Tq_obs.Timeseries.length ts > 0)
  | None -> Alcotest.fail "obs run must produce a timeseries");
  (* The Chrome export parses, and every quantum sits on a worker track. *)
  let module Json = Tq_util.Json in
  let events =
    match Json.of_string (Tq_obs.Span.to_chrome ~process:"tq_sim" spans) with
    | Ok doc -> (
        match Json.member "traceEvents" doc with
        | Some (Json.List evs) -> evs
        | _ -> Alcotest.fail "chrome json has no traceEvents list")
    | Error e -> Alcotest.failf "chrome json does not parse: %s" e
  in
  let quantum_tids =
    List.filter_map
      (fun ev ->
        match (Json.member "name" ev, Option.bind (Json.member "tid" ev) Json.number_opt) with
        | Some (Json.String "quantum"), Some tid -> Some tid
        | _ -> None)
      events
  in
  Alcotest.(check bool) "quanta exported" true (quantum_tids <> []);
  Alcotest.(check bool) "quanta on worker tracks (tid >= 100)" true
    (List.for_all (fun tid -> tid >= 100.0) quantum_tids)

let traced_systems =
  [ ("tq", Presets.tq (), Overheads.tq_default.ring_hop_ns);
    ("shinjuku", Presets.shinjuku ~quantum_ns:(Presets.shinjuku_quantum_for "extreme-bimodal") (), 0);
    ("caladan", Presets.caladan ~mode:Caladan.Iokernel (), 0) ]

(* The DES records the live server's phases, so Profile decomposes a
   traced run of each system: every request telescopes exactly into its
   stages.  Only TQ's ring hop takes time; Shinjuku's assignment op and
   Caladan's steering hand the job straight to its core. *)
let test_traced_runs_decompose () =
  List.iter
    (fun (name, system, ring_hop_ns) ->
      let obs = Tq_obs.Obs.create () in
      let r =
        Experiment.run ~obs ~system ~workload:Table1.extreme_bimodal_sim
          ~rate_rps:1_000_000.0 ~duration_ns:(Time_unit.ms 1.0) ()
      in
      let spans = obs.Tq_obs.Obs.spans in
      let check_int what = check Alcotest.int (name ^ ": " ^ what) in
      check_int "no sink overwrote" 0 (Tq_obs.Span.dropped spans);
      let p = Tq_obs.Profile.of_records (Tq_obs.Span.merge spans) in
      check_int "every request decomposed" r.offered (Tq_obs.Profile.requests p);
      Alcotest.(check bool) (name ^ ": requests > 0") true (r.offered > 0);
      check (Alcotest.float 0.0) (name ^ ": exact") 1.0 (Tq_obs.Profile.exact_fraction p);
      check_int "unattributed" 0 (Tq_obs.Profile.unattributed_count p);
      check_int "ring hop stage" (r.offered * ring_hop_ns)
        (Tq_obs.Profile.stage_sum_ns p Tq_obs.Profile.S_ring_hop))
    traced_systems;
  (* A core killed mid-run: TQ rescues the jobs queued on it and sends
     them over the ring again, yet every completed request still has
     one boundary of each kind and decomposes. *)
  List.iter
    (fun (name, system, _) ->
      let obs = Tq_obs.Obs.create () in
      let duration_ns = Time_unit.ms 1.0 in
      let r =
        Tq_fault.Fault_experiment.run ~obs ~system ~workload:Table1.extreme_bimodal_sim
          {
            (Tq_fault.Fault_experiment.default_config ~rate_rps:1_000_000.0 ~duration_ns)
            with
            faults = [ Tq_fault.Plan.Kill { wid = 3; at_ns = duration_ns / 2 } ];
            retry = None;
          }
      in
      let spans = obs.Tq_obs.Obs.spans in
      let check_int what = check Alcotest.int (name ^ " with a kill: " ^ what) in
      check_int "kill injected" 1 r.kills;
      check_int "no sink overwrote" 0 (Tq_obs.Span.dropped spans);
      (match r.acct with
      | Some a ->
          Alcotest.(check bool) (name ^ ": a job was re-dispatched") true
            (a.redispatches > 0)
      | None -> ());
      let p = Tq_obs.Profile.of_records (Tq_obs.Span.merge spans) in
      Alcotest.(check bool) (name ^ ": requests decomposed") true
        (Tq_obs.Profile.requests p > 0);
      check_int "unattributed" 0 (Tq_obs.Profile.unattributed_count p))
    traced_systems

let test_experiment_without_obs_has_no_timeseries () =
  let r =
    run_system ~system:(Presets.tq ()) ~workload:Table1.exp1 ~rate_rps:500_000.0
      ~duration_ns:(Time_unit.ms 1.0)
  in
  Alcotest.(check bool) "no sampler by default" true (r.timeseries = None)

let suite =
  [
    Alcotest.test_case "job inflation" `Quick test_job_inflation;
    Alcotest.test_case "worker ps interleaves" `Quick test_worker_ps_interleaves;
    Alcotest.test_case "worker fcfs" `Quick test_worker_fcfs_runs_to_completion;
    Alcotest.test_case "worker yield cost" `Quick test_worker_yield_cost;
    Alcotest.test_case "worker finish cost" `Quick test_worker_finish_cost;
    Alcotest.test_case "worker jitter bounds" `Quick test_worker_quantum_jitter_bounds;
    Alcotest.test_case "worker per-class quantum" `Quick test_worker_per_class_quantum;
    Alcotest.test_case "worker quanta counter" `Quick test_worker_serviced_quanta_counter;
    Alcotest.test_case "worker steal" `Quick test_worker_steal;
    Alcotest.test_case "jsq picks min" `Quick test_jsq_picks_min;
    Alcotest.test_case "msq tiebreak" `Quick test_msq_tiebreak;
    Alcotest.test_case "msq allocation-free" `Quick test_msq_allocation_free;
    Alcotest.test_case "policy draws pinned" `Quick test_policy_draws_pinned;
    masked_choice_is_alive;
    Alcotest.test_case "random in range" `Quick test_random_in_range;
    Alcotest.test_case "power of two" `Quick test_power_of_two_prefers_lighter;
    Alcotest.test_case "two-level conservation" `Quick test_two_level_conservation;
    Alcotest.test_case "two-level low load" `Quick test_two_level_low_load_latency;
    Alcotest.test_case "two-level protects short jobs" `Quick test_two_level_short_jobs_protected;
    Alcotest.test_case "fcfs hol blocking" `Quick test_two_level_fcfs_hol_blocking;
    Alcotest.test_case "jsq beats random" `Quick test_two_level_jsq_beats_random;
    Alcotest.test_case "dispatcher load quantum-independent" `Quick
      test_dispatcher_busy_scales_with_jobs_not_quanta;
    Alcotest.test_case "centralized ideal ps" `Quick test_centralized_ideal_ps_short_jobs;
    Alcotest.test_case "centralized preempt overhead" `Quick
      test_centralized_preemption_overhead_costs_throughput;
    Alcotest.test_case "centralized dispatcher gap" `Quick
      test_centralized_dispatcher_gap_grows_with_cores;
    Alcotest.test_case "centralized fcfs mode" `Quick test_centralized_fcfs_mode;
    Alcotest.test_case "caladan stealing" `Quick test_caladan_work_stealing_balances;
    Alcotest.test_case "caladan hol blocking" `Quick test_caladan_hol_blocking;
    Alcotest.test_case "caladan favors long jobs" `Quick test_caladan_long_jobs_favored;
    Alcotest.test_case "caladan iokernel bottleneck" `Quick test_caladan_iokernel_bottleneck;
    Alcotest.test_case "throughput low load" `Quick test_throughput_at_low_load;
    Alcotest.test_case "max rate under slo" `Quick test_max_rate_under_slo;
    Alcotest.test_case "shinjuku quanta presets" `Quick test_presets_shinjuku_quanta;
    Alcotest.test_case "multi-dispatcher busy accounting" `Quick
      test_multi_dispatcher_busy_accounting;
    Alcotest.test_case "single-dispatcher max busy" `Quick
      test_single_dispatcher_max_equals_total;
    Alcotest.test_case "experiment obs integration" `Quick
      test_experiment_obs_integration;
    Alcotest.test_case "traced runs decompose exactly" `Quick test_traced_runs_decompose;
    Alcotest.test_case "no obs, no timeseries" `Quick
      test_experiment_without_obs_has_no_timeseries;
  ]

(* --- determinism and multi-seed --- *)

let test_experiment_deterministic () =
  let run () =
    run_system ~system:(Presets.tq ()) ~workload:Table1.extreme_bimodal_sim
      ~rate_rps:2_500_000.0 ~duration_ns:(Time_unit.ms 10.0)
  in
  let a = run () and b = run () in
  check Alcotest.int "same completions" (Metrics.total_completed a.metrics)
    (Metrics.total_completed b.metrics);
  check (Alcotest.float 1e-9) "same tail"
    (Metrics.sojourn_percentile a.metrics ~class_idx:0 99.9)
    (Metrics.sojourn_percentile b.metrics ~class_idx:0 99.9);
  check Alcotest.int "same event count" a.events b.events

let test_run_seeds_aggregation () =
  let results =
    Experiment.run_seeds ~seeds:[ 1L; 2L; 3L ] ~system:(Presets.tq ())
      ~workload:Table1.exp1 ~rate_rps:1_000_000.0 ~duration_ns:(Time_unit.ms 10.0) ()
  in
  check Alcotest.int "three runs" 3 (List.length results);
  let mean = Experiment.mean_sojourn_percentile results ~class_idx:0 99.9 in
  Alcotest.(check bool) "mean finite and sane" true (mean > 1_000.0 && mean < 100_000.0);
  (* Different seeds: at least two runs differ. *)
  let tails =
    List.map
      (fun (r : Experiment.result) -> Metrics.sojourn_percentile r.metrics ~class_idx:0 99.9)
      results
  in
  Alcotest.(check bool) "seeds differ" true (List.length (List.sort_uniq compare tails) > 1)

(* The simulated event stream, pinned: events, offered and measured
   completions of every system at 50% and 90% of 16-core capacity on
   extreme-bimodal.  A speed-up of the simulator must leave every one of
   these numbers as it is. *)
let test_event_stream_pinned () =
  let workload = Table1.extreme_bimodal in
  let capacity = Arrivals.capacity_rps ~cores:16 workload in
  let run system load =
    Experiment.run ~seed:1L ~system ~workload ~rate_rps:(load *. capacity)
      ~duration_ns:(Time_unit.ms 4.0) ()
  in
  let counts name system load expected =
    let r = run system load in
    check
      Alcotest.(triple int int int)
      (Printf.sprintf "%s@%g events/offered/measured" name load)
      expected
      (r.events, r.offered, Metrics.total_completed r.metrics);
    r
  in
  let short_p999 (r : Experiment.result) = Metrics.sojourn_percentile r.metrics ~class_idx:0 99.9 in
  let tq50 = counts "tq" (Presets.tq ()) 0.5 (58926, 11095, 9955) in
  let tq90 = counts "tq" (Presets.tq ()) 0.9 (107838, 20262, 18240) in
  check (Alcotest.float 0.0) "tq@0.5 short p99.9 sojourn" 2195.0 (short_p999 tq50);
  check (Alcotest.float 0.0) "tq@0.9 short p99.9 sojourn" 4638.0 (short_p999 tq90);
  let shinjuku = Presets.shinjuku ~quantum_ns:5_000 () in
  let sj50 = counts "shinjuku" shinjuku 0.5 (55902, 11095, 9955) in
  let sj90 = counts "shinjuku" shinjuku 0.9 (102259, 20262, 18240) in
  check (Alcotest.float 0.0) "shinjuku@0.5 short p99.9 sojourn" 526909.0 (short_p999 sj50);
  check (Alcotest.float 0.0) "shinjuku@0.9 short p99.9 sojourn" 3918170.0 (short_p999 sj90);
  let caladan = Presets.caladan ~mode:Caladan.Iokernel () in
  let cl50 = counts "caladan" caladan 0.5 (39333, 11095, 9955) in
  let cl90 = counts "caladan" caladan 0.9 (77678, 20262, 18240) in
  check (Alcotest.float 0.0) "caladan@0.5 short p99.9 sojourn" 1686.0 (short_p999 cl50);
  check (Alcotest.float 0.0) "caladan@0.9 short p99.9 sojourn" 761852.0 (short_p999 cl90)

(* Paths the stream pin above never takes, pinned the same way at 90%
   of 16-core capacity on extreme-bimodal: (events, completed, lost,
   short p99.9 sojourn).  [faults] run at fixed virtual times; a health
   monitor makes TQ re-dispatch off the killed and the stalled core. *)
let test_fault_paths_pinned () =
  let workload = Table1.extreme_bimodal in
  let duration_ns = Time_unit.ms 4.0 in
  let run ?(monitor = false) ?(faults = []) system =
    let sim = Sim.create () in
    let rng = Prng.create ~seed:1L in
    let metrics = Metrics.create ~workload ~warmup_ns:(duration_ns / 10) in
    let inst = System_intf.instantiate system sim ~rng:(Prng.split rng) ~metrics () in
    if monitor then
      System_intf.install_health_monitor inst ~interval_ns:(Time_unit.us 20.0)
        ~until_ns:duration_ns ~missed_heartbeats:2;
    List.iter
      (fun (time, fault) -> ignore (Sim.schedule_at sim ~time (fun () -> fault inst) : Sim.event))
      faults;
    let rate_rps = 0.9 *. Arrivals.capacity_rps ~cores:16 workload in
    ignore
      (Arrivals.install sim ~rng:(Prng.split rng) ~workload ~rate_rps ~duration_ns
         ~sink:(System_intf.submit inst)
        : int ref);
    Sim.run sim;
    ( Sim.events_processed sim,
      Metrics.total_completed metrics,
      System_intf.lost_jobs inst,
      Metrics.sojourn_percentile metrics ~class_idx:0 99.9 )
  in
  let stall wid inst = System_intf.inject_stall inst ~wid ~duration_ns:(Time_unit.us 200.0) in
  let kill wid inst = System_intf.kill_worker inst ~wid in
  let stall_and_kill = [ (Time_unit.ms 1.0, stall 3); (Time_unit.ms 2.0, kill 5) ] in
  let pin name expected got =
    let show (e, c, l, p) = Printf.sprintf "%d/%d/%d/%.17g" e c l p in
    check Alcotest.string (name ^ " events/completed/lost/short p99.9") (show expected)
      (show got)
  in
  pin "tq-steal" (110010, 18240, 0, 4599.0) (run (Presets.tq_steal ()));
  pin "tq monitored stall+kill" (107809, 18239, 1, 4753.0)
    (run ~monitor:true ~faults:stall_and_kill (Presets.tq ()));
  pin "shinjuku stall+kill" (102063, 18240, 1, 3917880.0)
    (run
       ~faults:[ (Time_unit.ms 1.0, stall 0); (2_036_889 (* core 2 mid-slice *), kill 2) ]
       (Presets.shinjuku ~quantum_ns:5_000 ()));
  pin "caladan kill" (78127, 18239, 1, 761852.0)
    (run ~faults:[ (Time_unit.ms 2.0, kill 1) ] (Presets.caladan ~mode:Caladan.Iokernel ()))

(* A whole run at 90% load, set-up included, allocates little more than
   its requests do: each carries a request and a job, and neither its
   queues nor its events (about five per request) allocate a cell. *)
let check_run_minor_words system ~at_most =
  let workload = Table1.extreme_bimodal in
  let rate_rps = 0.9 *. Arrivals.capacity_rps ~cores:16 workload in
  let before = Gc.minor_words () in
  let r =
    Experiment.run ~seed:1L ~system ~workload ~rate_rps ~duration_ns:(Time_unit.ms 4.0) ()
  in
  let per_event = (Gc.minor_words () -. before) /. float_of_int r.events in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f minor words per event, at most %g" per_event at_most)
    true (per_event <= at_most)

let test_tq_run_minor_words () = check_run_minor_words (Presets.tq ()) ~at_most:6.0

let test_shinjuku_run_minor_words () =
  check_run_minor_words
    (Presets.shinjuku
       ~quantum_ns:(Presets.shinjuku_quantum_for Table1.extreme_bimodal.name)
       ())
    ~at_most:6.0

let test_caladan_run_minor_words () =
  check_run_minor_words (Presets.caladan ~mode:Caladan.Iokernel ()) ~at_most:7.0

(* Retuning one instance's per-class quantum must not reach into the
   spec it was built from, nor into other instances built from it. *)
let test_set_quantum_leaves_spec_alone () =
  let config =
    match Presets.tq_timing () with Experiment.Two_level c -> c | _ -> assert false
  in
  let build () =
    let sim = Sim.create () in
    let metrics = Metrics.create ~workload:Table1.extreme_bimodal ~warmup_ns:0 in
    Two_level.create sim ~rng:(Prng.create ~seed:1L) ~config ~metrics ()
  in
  let quantum t ~class_idx = Worker.quantum_for_class (Two_level.workers t).(0) ~class_idx in
  let retuned = build () in
  Two_level.set_quantum retuned ~class_idx:0 ~quantum_ns:9_000 ();
  check Alcotest.(option int) "retuned class 0" (Some 9_000) (quantum retuned ~class_idx:0);
  check Alcotest.(option int) "class 1 untouched" (Some 3_000) (quantum retuned ~class_idx:1);
  let fresh = build () in
  check Alcotest.(option int) "fresh instance keeps the spec's class-0 quantum" (Some 1_000)
    (quantum fresh ~class_idx:0)

let determinism_suite =
  [
    Alcotest.test_case "experiment deterministic" `Quick test_experiment_deterministic;
    Alcotest.test_case "run_seeds aggregation" `Quick test_run_seeds_aggregation;
    Alcotest.test_case "event stream pinned" `Quick test_event_stream_pinned;
    Alcotest.test_case "fault and steal paths pinned" `Quick test_fault_paths_pinned;
    Alcotest.test_case "tq run minor words per event" `Quick test_tq_run_minor_words;
    Alcotest.test_case "shinjuku run minor words per event" `Quick
      test_shinjuku_run_minor_words;
    Alcotest.test_case "caladan run minor words per event" `Quick
      test_caladan_run_minor_words;
    Alcotest.test_case "set_quantum leaves the spec alone" `Quick
      test_set_quantum_leaves_spec_alone;
  ]

let suite = suite @ determinism_suite

(* The README's library quickstart, as written there. *)
let test_readme_quickstart () =
  let result =
    Tq_sched.Experiment.run
      ~system:(Tq_sched.Presets.tq ())
      ~workload:Tq_workload.Table1.extreme_bimodal ~rate_rps:2_000_000.0
      ~duration_ns:(Tq_util.Time_unit.ms 10.0) ()
  in
  let p999 =
    Tq_workload.Metrics.sojourn_percentile result.metrics ~class_idx:0 99.9 /. 1e3
  in
  Alcotest.(check bool) "sane tail" true (p999 > 0.1 && p999 < 1_000.0)

let suite =
  suite @ [ Alcotest.test_case "readme quickstart" `Quick test_readme_quickstart ]
