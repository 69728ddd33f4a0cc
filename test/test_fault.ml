(* Tests for the robustness stack (tq_fault + the failure handling in
   tq_sched/tq_workload): retry/backoff math, request conservation under
   faults, failure recovery in all three systems, and overload
   protection by admission control. *)

module Sim = Tq_engine.Sim
module Prng = Tq_util.Prng
module Arrivals = Tq_workload.Arrivals
module Metrics = Tq_workload.Metrics
module Retry = Tq_workload.Retry
module Table1 = Tq_workload.Table1
module Worker = Tq_sched.Worker
module Two_level = Tq_sched.Two_level
module Centralized = Tq_sched.Centralized
module Caladan = Tq_sched.Caladan
module Admission = Tq_sched.Admission
module Presets = Tq_sched.Presets
module Plan = Tq_fault.Plan
module Injector = Tq_fault.Injector
module Fault_experiment = Tq_fault.Fault_experiment

let check = Alcotest.check

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let req ?(req_id = 1) ?(class_idx = 0) ~service_ns ~arrival_ns () =
  { Arrivals.req_id; class_idx; service_ns; arrival_ns }

let raises_invalid f =
  match f () with exception Invalid_argument _ -> true | _ -> false

(* --- Retry backoff math (property tests) --- *)

let backoff_config_gen =
  QCheck.(
    map
      (fun (base, extra, timeout) ->
        {
          Retry.default_config with
          timeout_ns = timeout;
          backoff_base_ns = base;
          backoff_cap_ns = base + extra;
        })
      (triple (int_bound 1_000_000) (int_bound 1_000_000) (int_range 1 1_000_000)))

let backoff_capped =
  qtest "backoff always within [0, cap]"
    QCheck.(pair backoff_config_gen (int_range 1 500))
    (fun (config, retry) ->
      let b = Retry.backoff_ns config ~retry in
      b >= 0 && b <= config.Retry.backoff_cap_ns)

let backoff_monotone =
  qtest "backoff non-decreasing in retry number"
    QCheck.(pair backoff_config_gen (int_range 1 100))
    (fun (config, retry) ->
      Retry.backoff_ns config ~retry <= Retry.backoff_ns config ~retry:(retry + 1))

let backoff_doubles =
  qtest "backoff doubles from base until the cap"
    QCheck.(pair (int_range 1 1000) (int_range 1 15))
    (fun (base, retry) ->
      let config =
        { Retry.default_config with timeout_ns = 1; backoff_base_ns = base;
          backoff_cap_ns = max_int }
      in
      Retry.backoff_ns config ~retry = base lsl (retry - 1))

let test_backoff_edges () =
  let config =
    { Retry.default_config with timeout_ns = 10; backoff_base_ns = 0; backoff_cap_ns = 0 }
  in
  check Alcotest.int "zero base stays zero" 0 (Retry.backoff_ns config ~retry:50);
  check Alcotest.bool "retry < 1 rejected" true
    (raises_invalid (fun () -> Retry.backoff_ns config ~retry:0));
  let config =
    { Retry.default_config with timeout_ns = 10; backoff_base_ns = max_int / 2;
      backoff_cap_ns = max_int }
  in
  (* A shift that would wrap must clamp to the cap, not go negative. *)
  check Alcotest.int "overflow clamps to cap" max_int (Retry.backoff_ns config ~retry:63)

(* --- Retry layer timeline --- *)

let retry_config =
  { Retry.default_config with timeout_ns = 10_000; backoff_base_ns = 1_000;
    backoff_cap_ns = 4_000 }

let test_retry_recovers_dropped_request () =
  let sim = Sim.create () in
  let metrics = Metrics.create ~workload:Table1.exp1 ~warmup_ns:0 in
  let r_ref = ref None in
  let submissions = ref [] in
  (* First attempt vanishes (a NIC drop); the second is served 1 us
     after submission. *)
  let submit (rq : Arrivals.request) =
    submissions := (rq.arrival_ns, Sim.now sim) :: !submissions;
    if List.length !submissions > 1 then
      ignore
        (Sim.schedule_after sim ~delay:1_000 (fun () ->
             match !r_ref with
             | Some r -> Retry.note_completion r ~req_id:rq.req_id ~finish_ns:(Sim.now sim)
             | None -> assert false)
          : Sim.event)
  in
  let r = Retry.create sim ~config:retry_config ~metrics ~submit () in
  r_ref := Some r;
  ignore
    (Sim.schedule_at sim ~time:0 (fun () ->
         Retry.sink r (req ~service_ns:1_000 ~arrival_ns:0 ()))
      : Sim.event);
  Sim.run sim;
  (* Timeout at 10 us, first-retry backoff 1 us, re-submit at 11 us,
     completion at 12 us — measured from the ORIGINAL arrival. *)
  check Alcotest.int "two submissions" 2 (List.length !submissions);
  check Alcotest.int "attempts counted once each" 2 (Metrics.attempts metrics);
  check Alcotest.int "one retry" 1 (Metrics.retries metrics);
  check Alcotest.int "no timeout drop" 0 (Metrics.timeout_drops metrics);
  check Alcotest.int "eventual completion recorded" 1 (Metrics.eventual_completed metrics);
  check (Alcotest.float 0.01) "eventual latency from original arrival" 12_000.0
    (Metrics.overall_eventual_percentile metrics 100.0);
  check Alcotest.int "re-submission carries retry arrival time" 11_000
    (match !submissions with (a, _) :: _ -> a | [] -> -1);
  check Alcotest.int "nothing in flight" 0 (Retry.in_flight r);
  check Alcotest.int "attempts_of" 2 (Retry.attempts_of r ~req_id:1)

let test_retry_abandons_then_counts_duplicate () =
  let sim = Sim.create () in
  let metrics = Metrics.create ~workload:Table1.exp1 ~warmup_ns:0 in
  (* The scheduler never answers. *)
  let r = Retry.create sim ~config:retry_config ~metrics ~submit:(fun _ -> ()) () in
  ignore
    (Sim.schedule_at sim ~time:0 (fun () ->
         Retry.sink r (req ~service_ns:1_000 ~arrival_ns:0 ()))
      : Sim.event);
  Sim.run sim;
  check Alcotest.int "all attempts used" 3 (Metrics.attempts metrics);
  check Alcotest.int "two retries" 2 (Metrics.retries metrics);
  check Alcotest.int "abandoned" 1 (Metrics.timeout_drops metrics);
  check Alcotest.int "no eventual completion" 0 (Metrics.eventual_completed metrics);
  check Alcotest.int "nothing in flight" 0 (Retry.in_flight r);
  (* A straggler completion after abandonment is wasted work. *)
  Retry.note_completion r ~req_id:1 ~finish_ns:(Sim.now sim);
  check Alcotest.int "late completion is a duplicate" 1 (Metrics.duplicates metrics);
  check Alcotest.int "still no eventual completion" 0 (Metrics.eventual_completed metrics)

(* The shared retry budget: once spent, timed-out requests are
   abandoned with attempts left and counted apart from ordinary
   attempt-limit drops. *)
let test_retry_budget_exhausted () =
  let sim = Sim.create () in
  let metrics = Metrics.create ~workload:Table1.exp1 ~warmup_ns:0 in
  let config = { retry_config with Retry.retry_budget = Some 3 } in
  (* The scheduler never answers; without a budget each of the three
     requests would retry twice (max_attempts 3). *)
  let r = Retry.create sim ~config ~metrics ~submit:(fun _ -> ()) () in
  ignore
    (Sim.schedule_at sim ~time:0 (fun () ->
         for i = 1 to 3 do
           Retry.sink r (req ~req_id:i ~service_ns:1_000 ~arrival_ns:0 ())
         done)
      : Sim.event);
  Sim.run sim;
  check Alcotest.int "budget caps total retries" 3 (Metrics.retries metrics);
  check Alcotest.int "budget accounting agrees" 3 (Retry.retries_spent r);
  check Alcotest.int "every request eventually dropped" 3 (Metrics.timeout_drops metrics);
  check Alcotest.bool "budget-denied drops surfaced" true
    (Metrics.retries_exhausted metrics > 0);
  check Alcotest.int "nothing in flight" 0 (Retry.in_flight r);
  (* Zero budget degenerates to no retries at all. *)
  let sim = Sim.create () in
  let metrics = Metrics.create ~workload:Table1.exp1 ~warmup_ns:0 in
  let r =
    Retry.create sim
      ~config:{ retry_config with Retry.retry_budget = Some 0 }
      ~metrics ~submit:(fun _ -> ()) ()
  in
  ignore
    (Sim.schedule_at sim ~time:0 (fun () ->
         Retry.sink r (req ~service_ns:1_000 ~arrival_ns:0 ()))
      : Sim.event);
  Sim.run sim;
  check Alcotest.int "zero budget: no retries" 0 (Metrics.retries metrics);
  check Alcotest.int "zero budget: dropped at first timeout" 1
    (Metrics.retries_exhausted metrics);
  check Alcotest.bool "negative budget rejected" true
    (raises_invalid (fun () ->
         Retry.create sim
           ~config:{ retry_config with Retry.retry_budget = Some (-1) }
           ~metrics ~submit:(fun _ -> ()) ()))

(* Full jitter keeps the backoff inside [0, deterministic backoff] and
   stays reproducible under a fixed RNG seed. *)
let test_retry_full_jitter () =
  let resubmission_times config ~seed =
    let sim = Sim.create () in
    let metrics = Metrics.create ~workload:Table1.exp1 ~warmup_ns:0 in
    let times = ref [] in
    let submit (_ : Arrivals.request) = times := Sim.now sim :: !times in
    let r =
      Retry.create sim ~config ~metrics ~submit ~rng:(Prng.create ~seed) ()
    in
    ignore
      (Sim.schedule_at sim ~time:0 (fun () ->
           Retry.sink r (req ~service_ns:1_000 ~arrival_ns:0 ()))
        : Sim.event);
    Sim.run sim;
    List.rev !times
  in
  let config =
    { retry_config with Retry.jitter = true; max_attempts = 8;
      backoff_base_ns = 4_000; backoff_cap_ns = 4_000 }
  in
  let times = resubmission_times config ~seed:7L in
  check Alcotest.int "all attempts submitted" 8 (List.length times);
  (* Each retry leaves at the timeout plus a uniform [0, 4000] draw. *)
  let rec pairs = function
    | a :: (b :: _ as rest) ->
        let gap = b - a in
        check Alcotest.bool "jittered backoff within [timeout, timeout+cap]" true
          (gap >= config.Retry.timeout_ns
          && gap <= config.Retry.timeout_ns + config.Retry.backoff_cap_ns);
        pairs rest
    | _ -> ()
  in
  pairs times;
  (* at least one draw actually moved off the deterministic schedule *)
  check Alcotest.bool "jitter jitters" true
    (List.exists2
       (fun a b -> a <> b)
       times
       (resubmission_times { config with Retry.jitter = false } ~seed:7L));
  check Alcotest.bool "fixed seed reproduces" true
    (times = resubmission_times config ~seed:7L)

(* --- Admission control --- *)

let test_admission_queue_limit () =
  let a = Admission.create (Admission.Queue_limit { max_in_system = 4 }) in
  check Alcotest.bool "admits under the cap" true (Admission.admit a ~in_system:3);
  check Alcotest.bool "rejects at the cap" false (Admission.admit a ~in_system:4);
  check Alcotest.bool "rejects above the cap" false (Admission.admit a ~in_system:9);
  check Alcotest.int "rejections counted" 2 (Admission.rejected a)

let test_admission_ewma () =
  let a = Admission.create (Admission.Ewma_sojourn { threshold_ns = 1_000; alpha = 0.5 }) in
  check Alcotest.bool "admits before any completion" true (Admission.admit a ~in_system:999);
  Admission.note_completion a ~sojourn_ns:4_000;
  check (Alcotest.float 0.01) "first sample seeds the EWMA" 4_000.0
    (Admission.ewma_sojourn_ns a);
  check Alcotest.bool "rejects while estimate above threshold" false
    (Admission.admit a ~in_system:0);
  Admission.note_completion a ~sojourn_ns:100;
  Admission.note_completion a ~sojourn_ns:100;
  Admission.note_completion a ~sojourn_ns:100;
  (* 4000 -> 2050 -> 1075 -> 587.5 *)
  check Alcotest.bool "readmits once the estimate decays" true (Admission.admit a ~in_system:0);
  check Alcotest.bool "bad alpha rejected" true
    (raises_invalid (fun () ->
         Admission.create (Admission.Ewma_sojourn { threshold_ns = 1_000; alpha = 1.5 })))

let test_admission_edges () =
  (* The boundary is exact: in_system strictly below the cap admits,
     at the cap sheds — a cap of 1 serializes, it does not starve. *)
  let a = Admission.create (Admission.Queue_limit { max_in_system = 1 }) in
  check Alcotest.bool "cap 1 admits an empty system" true (Admission.admit a ~in_system:0);
  check Alcotest.bool "cap 1 sheds at its own depth" false (Admission.admit a ~in_system:1);
  (* Zero capacity would shed everything forever; it is rejected up
     front rather than becoming a silently-dead front door. *)
  check Alcotest.bool "zero-capacity create rejected" true
    (raises_invalid (fun () ->
         Admission.create (Admission.Queue_limit { max_in_system = 0 })));
  check Alcotest.bool "zero-capacity retune rejected" true
    (raises_invalid (fun () ->
         Admission.set_policy a (Admission.Queue_limit { max_in_system = 0 })));
  check Alcotest.bool "failed retune leaves the old policy in force" true
    (Admission.policy a = Admission.Queue_limit { max_in_system = 1 })

let test_admission_retune_preserves_state () =
  (* The controller retunes thresholds mid-run; learned state (the
     sojourn EWMA, the rejection tally) must survive every swap. *)
  let a = Admission.create (Admission.Ewma_sojourn { threshold_ns = 1_000; alpha = 0.5 }) in
  Admission.note_completion a ~sojourn_ns:4_000;
  check Alcotest.bool "rejects above the threshold" false (Admission.admit a ~in_system:0);
  let rejected_before = Admission.rejected a in
  let ewma_before = Admission.ewma_sojourn_ns a in
  Admission.set_policy a (Admission.Ewma_sojourn { threshold_ns = 8_000; alpha = 0.5 });
  check (Alcotest.float 0.01) "EWMA preserved across the retune" ewma_before
    (Admission.ewma_sojourn_ns a);
  check Alcotest.int "rejection tally preserved" rejected_before (Admission.rejected a);
  check Alcotest.bool "relaxed threshold admits at once" true
    (Admission.admit a ~in_system:0);
  (* Cross-policy swap: the tally keeps accumulating monotonically. *)
  Admission.set_policy a (Admission.Queue_limit { max_in_system = 2 });
  check Alcotest.bool "queue limit in force after swap" false
    (Admission.admit a ~in_system:2);
  check Alcotest.int "tally spans policies" (rejected_before + 1) (Admission.rejected a);
  Admission.set_policy a (Admission.Ewma_sojourn { threshold_ns = 1_000; alpha = 0.5 });
  check Alcotest.bool "EWMA still in effect after returning" false
    (Admission.admit a ~in_system:0)

(* --- Plan validation --- *)

let test_plan_validate () =
  let stall intensity tick_ns =
    Plan.Stalls { intensity; duration = Plan.Fixed_ns 1_000; scope = Plan.All_workers; tick_ns }
  in
  Plan.validate (stall 0.5 1_000);
  check Alcotest.bool "intensity > 1" true
    (raises_invalid (fun () -> Plan.validate (stall 1.5 1_000)));
  check Alcotest.bool "zero tick" true
    (raises_invalid (fun () -> Plan.validate (stall 0.5 0)));
  check Alcotest.bool "drop prob out of range" true
    (raises_invalid (fun () -> Plan.validate (Plan.Nic_drop { prob = -0.1 })));
  check Alcotest.bool "uniform lo > hi" true
    (raises_invalid (fun () ->
         Plan.validate
           (Plan.Stalls
              { intensity = 0.1; duration = Plan.Uniform_ns { lo = 10; hi = 5 };
                scope = Plan.All_workers; tick_ns = 1_000 })))

(* --- Injector determinism and intensity --- *)

let count_stalls ~seed ~intensity =
  let sim = Sim.create () in
  let rng = Prng.create ~seed in
  let target =
    { Injector.cores = 4;
      stall = (fun ~wid:_ ~duration_ns:_ -> ());
      kill = (fun ~wid:_ -> ());
      dispatcher_outage = (fun ~dispatcher:_ ~duration_ns:_ -> ()) }
  in
  let inj =
    Injector.install sim ~rng ~target ~until_ns:1_000_000
      [ Plan.Stalls
          { intensity; duration = Plan.Fixed_ns 20_000; scope = Plan.All_workers;
            tick_ns = 5_000 } ]
  in
  Sim.run sim;
  (Injector.stalls_injected inj, Injector.stall_ns_injected inj)

let test_injector_deterministic_and_monotone () =
  let a = count_stalls ~seed:5L ~intensity:0.05 in
  let a' = count_stalls ~seed:5L ~intensity:0.05 in
  let b = count_stalls ~seed:5L ~intensity:0.3 in
  check Alcotest.(pair int int) "same seed, same injections" a a';
  check Alcotest.bool "some stalls injected" true (fst a > 0);
  check Alcotest.bool "higher intensity injects more" true (fst b > fst a);
  check Alcotest.bool "stall time follows" true (snd b > snd a)

(* --- Conservation under faults (TQ accounting regression) --- *)

(* Four TQ cores at 70% load under 20% stalls, with core 1 killed half
   way and the health monitor marking cores dead and alive: returns the
   system and the conservation identity's samples and violations. *)
let faulted_two_level ?obs ~dispatch_policy () =
  let sim = Sim.create () in
  let rng = Prng.create ~seed:7L in
  let workload = Table1.exp1 in
  let metrics = Metrics.create ~workload ~warmup_ns:0 in
  let config = { Two_level.default_config with cores = 4; dispatch_policy } in
  let t = Two_level.create sim ~rng:(Prng.split rng) ~config ~metrics ?obs () in
  let duration_ns = 1_000_000 in
  ignore
    (Two_level.install_health_monitor t ~interval_ns:10_000 ~until_ns:duration_ns ()
      : Sim.periodic);
  let workers = Two_level.workers t in
  let violations = ref 0 and samples = ref 0 in
  let check_conservation () =
    let a = Two_level.accounting t in
    let on_worker = Array.fold_left (fun acc w -> acc + Worker.unfinished w) 0 workers in
    incr samples;
    if a.accepted <> a.in_dispatch + on_worker + a.completed + a.lost + a.dropped_no_worker
    then incr violations
  in
  ignore (Sim.periodic sim ~until:duration_ns ~interval:3_000 check_conservation : Sim.periodic);
  let target =
    { Injector.cores = 4;
      stall = (fun ~wid ~duration_ns -> Worker.inject_stall workers.(wid) ~duration_ns);
      kill = (fun ~wid -> Worker.kill workers.(wid));
      dispatcher_outage = (fun ~dispatcher:_ ~duration_ns:_ -> ()) }
  in
  ignore
    (Injector.install sim ~rng:(Prng.split rng) ~target ~until_ns:duration_ns
       [ Plan.Stalls
           { intensity = 0.2; duration = Plan.Fixed_ns 30_000; scope = Plan.All_workers;
             tick_ns = 5_000 };
         Plan.Kill { wid = 1; at_ns = duration_ns / 2 } ]
      : Injector.t);
  let rate_rps = 0.7 *. Arrivals.capacity_rps ~cores:4 workload in
  let issued =
    Arrivals.install sim ~rng:(Prng.split rng) ~workload ~rate_rps ~duration_ns
      ~sink:(Two_level.submit t)
  in
  Sim.run sim;
  check_conservation ();
  (t, !issued, !samples, !violations)

let test_conservation_under_faults () =
  let t, issued, samples, violations =
    faulted_two_level ~dispatch_policy:Tq_sched.Dispatch_policy.Jsq_msq ()
  in
  let a = Two_level.accounting t in
  check Alcotest.bool "enough samples" true (samples > 100);
  check Alcotest.int "conservation held at every sample" 0 violations;
  check Alcotest.int "every arrival accounted" issued a.submitted;
  check Alcotest.int "drained: nothing left in the system" 0 (Two_level.in_system t);
  check Alcotest.int "accepted = completed + lost + dropped at drain" a.accepted
    (a.completed + a.lost + a.dropped_no_worker);
  check Alcotest.bool "the kill lost at most one in-flight job" true (a.lost <= 1);
  check Alcotest.bool "snapshot consistent at drain" true
    (let queued, in_flight, busy = Two_level.obs_snapshot t in
     queued = 0 && in_flight = 0 && busy = 0)

(* The same faults under each policy: conservation holds, and no
   dispatch or rescue names a core the dispatcher believed dead at that
   instant.  A decision at the very instant of a verdict may precede it,
   so only decisions strictly inside a dead interval count. *)
let test_faults_under_every_policy () =
  List.iter
    (fun (name, dispatch_policy) ->
      let obs = Tq_obs.Obs.create () in
      let t, issued, _, violations = faulted_two_level ~obs ~dispatch_policy () in
      let a = Two_level.accounting t in
      let check_int what = check Alcotest.int (name ^ ": " ^ what) in
      check_int "conservation held at every sample" 0 violations;
      check_int "every arrival accounted" issued a.submitted;
      check_int "drained" a.accepted (a.completed + a.lost + a.dropped_no_worker);
      let spans = obs.Tq_obs.Obs.spans in
      check_int "no sink overwrote" 0 (Tq_obs.Span.dropped spans);
      let records = Tq_obs.Span.merge spans in
      (* (time, wid, marked dead) verdicts, in time order *)
      let marks =
        List.filter_map
          (fun (r : Tq_obs.Span.record) ->
            match r.phase with
            | Tq_obs.Span.Mark_dead -> Some (r.start_ns, r.arg, true)
            | Tq_obs.Span.Mark_alive -> Some (r.start_ns, r.arg, false)
            | _ -> None)
          records
      in
      let dead_at wid time =
        (not (List.exists (fun (at, w, _) -> w = wid && at = time) marks))
        && List.fold_left
             (fun dead (at, w, d) -> if w = wid && at < time then d else dead)
             false marks
      in
      let masked = ref 0 and to_dead = ref 0 in
      List.iter
        (fun (r : Tq_obs.Span.record) ->
          match r.phase with
          | Tq_obs.Span.Dispatch | Tq_obs.Span.Redispatch ->
              let time = r.start_ns + r.dur_ns in
              if List.exists (fun w -> dead_at w time) [ 0; 1; 2; 3 ] then incr masked;
              if dead_at r.arg time then incr to_dead
          | _ -> ())
        records;
      check Alcotest.bool (name ^ ": decisions made under a mask") true (!masked > 0);
      check_int "decisions naming a core marked dead" 0 !to_dead)
    Tq_sched.Dispatch_policy.
      [
        ("jsq-msq", Jsq_msq);
        ("jsq-random", Jsq_random);
        ("random", Random);
        ("power-of-two", Power_of_two);
      ]

(* --- Dispatcher health tracking: mark dead, re-dispatch, revive --- *)

let test_mark_dead_redispatches_queued_jobs () =
  let sim = Sim.create () in
  let rng = Prng.create ~seed:11L in
  let metrics = Metrics.create ~workload:Table1.exp1 ~warmup_ns:0 in
  let config = { Two_level.default_config with cores = 2 } in
  let t = Two_level.create sim ~rng ~config ~metrics () in
  (* Load both cores with long jobs, then declare core 0 dead while it
     still has work queued. *)
  ignore
    (Sim.schedule_at sim ~time:0 (fun () ->
         for i = 1 to 8 do
           Two_level.submit t (req ~req_id:i ~service_ns:20_000 ~arrival_ns:0 ())
         done)
      : Sim.event);
  ignore
    (Sim.schedule_at sim ~time:30_000 (fun () -> Two_level.mark_worker_dead t ~wid:0)
      : Sim.event);
  Sim.run sim;
  let a = Two_level.accounting t in
  check Alcotest.bool "queued jobs were re-dispatched" true (a.redispatches >= 1);
  (* The core was slow, not dead: nothing was actually destroyed, and
     every re-dispatched job completed on the other core. *)
  check Alcotest.int "all jobs completed" 8 a.completed;
  check Alcotest.int "nothing lost" 0 a.lost;
  check Alcotest.int "nothing stranded" 0 (Two_level.in_system t);
  check Alcotest.bool "core excluded from dispatch" true
    (not (Two_level.worker_marked_alive t ~wid:0));
  check Alcotest.int "one core believed alive" 1 (Two_level.alive_worker_count t)

(* A core marked dead must not steal: nothing rescues a queue it takes
   if it then dies, since marking a dead-marked core dead again is a
   no-op.  Core 0 is marked dead while both cores are busy, goes idle
   with core 1's queue behind it, then is killed. *)
let test_dead_marked_core_steals_nothing () =
  let sim = Sim.create () in
  let rng = Prng.create ~seed:11L in
  let metrics = Metrics.create ~workload:Table1.exp1 ~warmup_ns:0 in
  let config = { Two_level.default_config with cores = 2 } in
  let t = Two_level.create sim ~rng ~config ~metrics ~steal:true () in
  ignore
    (Sim.schedule_at sim ~time:0 (fun () ->
         for i = 1 to 8 do
           Two_level.submit t (req ~req_id:i ~service_ns:20_000 ~arrival_ns:0 ())
         done)
      : Sim.event);
  ignore
    (Sim.schedule_at sim ~time:1_000 (fun () -> Two_level.mark_worker_dead t ~wid:0)
      : Sim.event);
  ignore
    (Sim.schedule_at sim ~time:30_000 (fun () -> Worker.kill (Two_level.workers t).(0))
      : Sim.event);
  Sim.run sim;
  let a = Two_level.accounting t in
  check Alcotest.int "steals by the dead-marked core" 0 (Two_level.steals t);
  check Alcotest.int "nothing stranded" 0 (Two_level.in_system t);
  check Alcotest.int "completed or lost with the core, every job" 8 (a.completed + a.lost)

let test_stalled_core_marked_dead_then_revived () =
  let sim = Sim.create () in
  let rng = Prng.create ~seed:3L in
  let metrics = Metrics.create ~workload:Table1.exp1 ~warmup_ns:0 in
  let config = { Two_level.default_config with cores = 2 } in
  let t = Two_level.create sim ~rng ~config ~metrics () in
  ignore
    (Two_level.install_health_monitor t ~interval_ns:10_000 ~until_ns:300_000
       ~missed_heartbeats:2 ()
      : Sim.periodic);
  let workers = Two_level.workers t in
  ignore
    (Sim.schedule_at sim ~time:1 (fun () ->
         Worker.inject_stall workers.(0) ~duration_ns:100_000)
      : Sim.event);
  let during = ref true and after = ref false in
  ignore
    (Sim.schedule_at sim ~time:50_000 (fun () ->
         during := Two_level.worker_marked_alive t ~wid:0)
      : Sim.event);
  ignore
    (Sim.schedule_at sim ~time:150_000 (fun () ->
         after := Two_level.worker_marked_alive t ~wid:0)
      : Sim.event);
  Sim.run sim;
  check Alcotest.bool "stalled core marked dead after missed heartbeats" false !during;
  check Alcotest.bool "revived when it responds again" true !after;
  check Alcotest.bool "worker itself was never dead" true (Worker.alive workers.(0))

(* --- Full fault runs (Fault_experiment acceptance) --- *)

let test_kill_one_of_16_degrades_gracefully () =
  let workload = Table1.exp1 in
  let system = Presets.tq () in
  let duration_ns = 2_000_000 in
  let config =
    {
      (Fault_experiment.default_config
         ~rate_rps:(0.7 *. Arrivals.capacity_rps ~cores:16 workload)
         ~duration_ns)
      with
      faults = [ Plan.Kill { wid = 3; at_ns = duration_ns / 3 } ];
      retry = None;
    }
  in
  let r = Fault_experiment.run ~system ~workload config in
  check Alcotest.int "kill injected" 1 r.kills;
  check Alcotest.int "no stranded jobs" 0 r.stranded;
  check Alcotest.bool "at most the in-flight job was destroyed" true (r.lost <= 1);
  (match r.acct with
  | None -> Alcotest.fail "TQ run must expose accounting"
  | Some a ->
      check Alcotest.int "conservation at drain" a.accepted
        (a.completed + a.lost + a.dropped_no_worker);
      check Alcotest.int "no dispatch dead-ends" 0 a.dropped_no_worker);
  check Alcotest.bool "goodput stays near fault-free" true
    (Fault_experiment.goodput_ratio r >= 0.99);
  (* "Bounded p99": the tail after losing 1/16 capacity at 70% load
     stays far from the deadline. *)
  check Alcotest.bool "p99 bounded" true
    (Metrics.overall_eventual_percentile r.metrics 99.0
    < 0.5 *. float_of_int config.deadline_ns)

let test_nic_drops_recovered_by_retry () =
  let workload = Table1.exp1 in
  let system = Presets.tq ~cores:8 () in
  let rate_rps = 0.5 *. Arrivals.capacity_rps ~cores:8 workload in
  let duration_ns = 2_000_000 in
  let base = Fault_experiment.default_config ~rate_rps ~duration_ns in
  let faults = [ Plan.Nic_drop { prob = 0.2 } ] in
  let with_retry =
    Fault_experiment.run ~system ~workload
      { base with faults;
        retry = Some { Retry.default_config with timeout_ns = 50_000;
                       max_attempts = 4; backoff_base_ns = 5_000;
                       backoff_cap_ns = 40_000 };
        deadline_ns = 400_000 }
  in
  let without_retry =
    Fault_experiment.run ~system ~workload
      { base with faults; retry = None; deadline_ns = 400_000 }
  in
  check Alcotest.bool "drops happened" true (Metrics.nic_drops with_retry.metrics > 0);
  check Alcotest.bool "retries happened" true (Metrics.retries with_retry.metrics > 0);
  check Alcotest.bool "retry recovers nearly all drops" true
    (Fault_experiment.goodput_ratio with_retry >= 0.95);
  check Alcotest.bool "without retry ~20% of goodput is gone" true
    (Fault_experiment.goodput_ratio without_retry < 0.9)

let test_dispatcher_outage_rides_through () =
  let workload = Table1.exp1 in
  let system = Presets.tq ~cores:8 () in
  let duration_ns = 2_000_000 in
  let config =
    {
      (Fault_experiment.default_config
         ~rate_rps:(0.5 *. Arrivals.capacity_rps ~cores:8 workload)
         ~duration_ns)
      with
      faults =
        [ Plan.Dispatcher_outage
            { dispatcher = 0; at_ns = duration_ns / 2; duration_ns = 100_000 } ];
      retry = None;
      deadline_ns = 500_000;
    }
  in
  let r = Fault_experiment.run ~system ~workload config in
  check Alcotest.int "outage injected" 1 r.outages;
  check Alcotest.int "nothing stranded" 0 r.stranded;
  check Alcotest.int "nothing lost" 0 r.lost;
  (* Arrivals queue behind the outage and are served afterwards. *)
  check Alcotest.bool "goodput survives the outage" true
    (Fault_experiment.goodput_ratio r >= 0.9)

let test_admission_protects_goodput_past_saturation () =
  let workload = Table1.exp1 in
  let system = Presets.tq ~cores:8 () in
  let capacity = Arrivals.capacity_rps ~cores:8 workload in
  let duration_ns = 3_000_000 in
  let run ~load ~admission =
    Fault_experiment.run ~system ~workload
      {
        (Fault_experiment.default_config ~rate_rps:(load *. capacity) ~duration_ns) with
        retry = None;
        admission;
        deadline_ns = 200_000;
      }
  in
  let limit = Admission.Queue_limit { max_in_system = 32 } in
  let peak = run ~load:0.9 ~admission:limit in
  let protected_ = run ~load:1.4 ~admission:limit in
  let naked = run ~load:1.4 ~admission:Accept_all in
  check Alcotest.bool "sheds under overload" true
    (Metrics.rejections protected_.metrics > 0);
  check Alcotest.bool "goodput within 10% of peak past saturation" true
    (protected_.goodput_rps >= 0.9 *. peak.goodput_rps);
  check Alcotest.bool "without admission goodput collapses" true
    (naked.goodput_rps < 0.5 *. protected_.goodput_rps)

let test_fault_run_deterministic () =
  let workload = Table1.high_bimodal in
  let config =
    {
      (Fault_experiment.default_config
         ~rate_rps:(0.6 *. Arrivals.capacity_rps ~cores:4 workload)
         ~duration_ns:500_000)
      with
      faults =
        [ Plan.Stalls
            { intensity = 0.1; duration = Plan.Exp_ns { mean = 20_000 };
              scope = Plan.All_workers; tick_ns = 5_000 };
          Plan.Kill { wid = 2; at_ns = 250_000 };
          Plan.Nic_drop { prob = 0.05 } ];
    }
  in
  let run () =
    let r = Fault_experiment.run ~system:(Presets.tq ~cores:4 ()) ~workload config in
    (r.goodput, r.events, r.stalls_injected, Metrics.nic_drops r.metrics)
  in
  let a = run () and b = run () in
  check Alcotest.(pair (pair int int) (pair int int)) "same seed, same run"
    (let g, e, s, d = a in ((g, e), (s, d)))
    (let g, e, s, d = b in ((g, e), (s, d)))

(* --- Baseline fault models --- *)

let centralized_config ~cores =
  {
    Centralized.cores;
    quantum_ns = None;
    net_op_ns = 0;
    sched_op_ns = 0;
    sched_scan_per_core_ns = 0;
    preempt_ns = 0;
    probe_overhead_frac = 0.0;
  }

let test_centralized_kill_rescues_queue () =
  let sim = Sim.create () in
  let rng = Prng.create ~seed:1L in
  let metrics = Metrics.create ~workload:Table1.exp1 ~warmup_ns:0 in
  let t = Centralized.create sim ~rng ~config:(centralized_config ~cores:2) ~metrics () in
  ignore
    (Sim.schedule_at sim ~time:0 (fun () ->
         for i = 1 to 6 do
           Centralized.submit t (req ~req_id:i ~service_ns:10_000 ~arrival_ns:0 ())
         done)
      : Sim.event);
  (* Core 0 dies mid-service: its in-flight job is destroyed, but the
     central queue keeps feeding the surviving core. *)
  ignore
    (Sim.schedule_at sim ~time:5_000 (fun () -> Centralized.kill_worker t ~wid:0)
      : Sim.event);
  Sim.run sim;
  check Alcotest.int "one job destroyed" 1 (Centralized.lost_jobs t);
  check Alcotest.int "the rest completed" 5 (Metrics.total_completed metrics);
  let queued, in_flight, _ = Centralized.obs_snapshot t in
  check Alcotest.(pair int int) "drained" (0, 0) (queued, in_flight)

let test_centralized_stall_delays_but_completes () =
  let sim = Sim.create () in
  let rng = Prng.create ~seed:1L in
  let metrics = Metrics.create ~workload:Table1.exp1 ~warmup_ns:0 in
  let t = Centralized.create sim ~rng ~config:(centralized_config ~cores:2) ~metrics () in
  ignore
    (Sim.schedule_at sim ~time:1 (fun () ->
         Centralized.inject_stall t ~wid:0 ~duration_ns:50_000)
      : Sim.event);
  ignore
    (Sim.schedule_at sim ~time:2 (fun () ->
         for i = 1 to 4 do
           Centralized.submit t (req ~req_id:i ~service_ns:10_000 ~arrival_ns:2 ())
         done)
      : Sim.event);
  Sim.run sim;
  check Alcotest.int "nothing lost" 0 (Centralized.lost_jobs t);
  check Alcotest.int "all jobs completed despite the stall" 4
    (Metrics.total_completed metrics)

let test_caladan_kill_rescued_by_stealing () =
  let sim = Sim.create () in
  let rng = Prng.create ~seed:2L in
  let metrics = Metrics.create ~workload:Table1.exp1 ~warmup_ns:0 in
  let config = Caladan.default_config ~mode:Caladan.Directpath ~cores:2 in
  let completed = ref 0 in
  let t =
    Caladan.create sim ~rng ~config ~metrics ~on_complete:(fun _ -> incr completed) ()
  in
  ignore
    (Sim.schedule_at sim ~time:0 (fun () ->
         for i = 1 to 10 do
           Caladan.submit t (req ~req_id:i ~service_ns:10_000 ~arrival_ns:0 ())
         done)
      : Sim.event);
  ignore
    (Sim.schedule_at sim ~time:5_000 (fun () -> Caladan.kill_worker t ~wid:0) : Sim.event);
  Sim.run sim;
  (* Work stealing is the only rescue: everything except the in-flight
     job on the dead core must still complete, on the surviving core. *)
  check Alcotest.bool "at most one destroyed" true (Caladan.lost_jobs t <= 1);
  check Alcotest.int "destroyed + completed = offered" 10 (!completed + Caladan.lost_jobs t);
  let _, in_flight, _ = Caladan.obs_snapshot t in
  check Alcotest.int "no stranded jobs" 0 in_flight

(* An outage queued at a dispatcher (the IOKernel, for Caladan) is not a
   queued job.  One request is in service at the dispatcher when the
   outage is injected, so the outage waits behind it and nothing else
   waits at all. *)
let test_queued_outage_is_no_queued_job () =
  let systems =
    [
      ("tq", Presets.tq ());
      ("shinjuku", Presets.shinjuku ~quantum_ns:5_000 ());
      ("caladan", Presets.caladan ~mode:Caladan.Iokernel ());
    ]
  in
  List.iter
    (fun (name, spec) ->
      let sim = Sim.create () in
      let metrics = Metrics.create ~workload:Table1.exp1 ~warmup_ns:0 in
      let inst =
        Tq_sched.System_intf.instantiate spec sim ~rng:(Prng.create ~seed:1L) ~metrics ()
      in
      Tq_sched.System_intf.submit inst (req ~service_ns:1_000 ~arrival_ns:0 ());
      Tq_sched.System_intf.inject_dispatcher_outage inst ~dispatcher:0 ~duration_ns:10_000;
      let queued, in_flight, _ = Tq_sched.System_intf.obs_snapshot inst in
      check Alcotest.(pair int int) (name ^ " queued, in flight") (0, 0) (queued, in_flight);
      Sim.run sim;
      check Alcotest.int (name ^ " completed") 1 (Metrics.total_completed metrics))
    systems

(* A dead core is never busy again, so it must not be picked as the
   thief when a delivery lands behind a busy core.  One RSS flow sends
   every request to one core; a lower-index core is killed first. *)
let test_caladan_dead_core_steals_nothing () =
  let cores = 3 in
  let target = Tq_net.Rss.queue_of_flow ~flow:0 ~queues:cores in
  let dead = if target = 0 then 1 else 0 in
  let sim = Sim.create () in
  let rng = Prng.create ~seed:5L in
  let metrics = Metrics.create ~workload:Table1.exp1 ~warmup_ns:0 in
  let config =
    { (Caladan.default_config ~mode:Caladan.Directpath ~cores) with rss_flows = Some 1 }
  in
  let t = Caladan.create sim ~rng ~config ~metrics () in
  let held = ref 0 in
  let watch () =
    held := max !held (Worker.queue_length (Caladan.workers t).(dead))
  in
  ignore (Sim.schedule_at sim ~time:0 (fun () -> Caladan.kill_worker t ~wid:dead) : Sim.event);
  for i = 1 to 40 do
    ignore
      (Sim.schedule_at sim ~time:(i * 2_000) (fun () ->
           Caladan.submit t (req ~req_id:i ~service_ns:10_000 ~arrival_ns:(i * 2_000) ());
           watch ())
        : Sim.event)
  done;
  Sim.run sim;
  check Alcotest.bool "the flow lands on a live core" true (target <> dead);
  check Alcotest.int "dead core's queue stayed empty" 0 !held;
  check Alcotest.int "nothing lost" 0 (Caladan.lost_jobs t);
  check Alcotest.int "every request completed" 40 (Metrics.total_completed metrics)

(* --- Count, don't scan: the baselines' aggregates under faults --- *)

(* Each system's aggregates (Shinjuku's open-core count, the queued-job
   count Caladan's workers share, each TQ worker's own) must match a
   recount after every event, under any mix of faults.  The systems run
   4 cores, overloaded so queues build, with a heartbeat monitor (TQ
   drains the queues of cores it marks dead).  A fault is [(kind, core,
   time, length)]: kind 0 stalls the core, 1 kills it, 2 blinds the
   dispatcher. *)
let invariant_systems =
  let stealing = function
    | Tq_sched.System_intf.Two_level cfg -> Tq_sched.System_intf.Stealing cfg
    | spec -> spec
  in
  [|
    Presets.shinjuku ~cores:4 ~quantum_ns:5_000 ();
    Presets.caladan ~cores:4 ~mode:Caladan.Iokernel ();
    Presets.caladan ~cores:4 ~mode:Caladan.Directpath ();
    Presets.tq_steal ~cores:4 ();
    stealing (Presets.tq_las ~cores:4 ());
  |]

let fault_schedule =
  let open QCheck.Gen in
  let request = pair (int_bound 4_000) (int_range 500 40_000) in
  let fault = quad (int_bound 2) (int_bound 3) (int_bound 300_000) (int_range 1 60_000) in
  QCheck.make
    ~print:(fun (sys, reqs, faults) ->
      Printf.sprintf "%s, %d requests, faults [%s]"
        (Tq_sched.System_intf.spec_name invariant_systems.(sys))
        (List.length reqs)
        (String.concat "; "
           (List.map (fun (k, w, at, d) -> Printf.sprintf "(%d, %d, %d, %d)" k w at d) faults)))
    (triple
       (int_bound (Array.length invariant_systems - 1))
       (list_size (int_range 1 120) request)
       (list_size (int_bound 8) fault))

let test_aggregates_match_recount =
  qtest ~count:150 "aggregates match a recount under faults" fault_schedule
    (fun (sys, reqs, faults) ->
      let sim = Sim.create () in
      let metrics = Metrics.create ~workload:Table1.exp1 ~warmup_ns:0 in
      let inst =
        Tq_sched.System_intf.instantiate invariant_systems.(sys) sim
          ~rng:(Prng.create ~seed:3L) ~metrics ()
      in
      Tq_sched.System_intf.install_health_monitor inst ~interval_ns:10_000
        ~until_ns:500_000 ~missed_heartbeats:2;
      let at = ref 0 in
      List.iteri
        (fun i (gap, service_ns) ->
          at := !at + gap;
          let r = req ~req_id:(i + 1) ~service_ns ~arrival_ns:!at () in
          ignore
            (Sim.schedule_at sim ~time:!at (fun () -> Tq_sched.System_intf.submit inst r)
              : Sim.event))
        reqs;
      List.iter
        (fun (kind, wid, time, duration_ns) ->
          ignore
            (Sim.schedule_at sim ~time (fun () ->
                 match kind with
                 | 0 -> Tq_sched.System_intf.inject_stall inst ~wid ~duration_ns
                 | 1 -> Tq_sched.System_intf.kill_worker inst ~wid
                 | _ ->
                     Tq_sched.System_intf.inject_dispatcher_outage inst ~dispatcher:0
                       ~duration_ns)
              : Sim.event))
        faults;
      let rec run () =
        match Tq_sched.System_intf.invariant_violations inst with
        | [] -> if Sim.step sim then run () else true
        | bad ->
            QCheck.Test.fail_reportf "at %d ns: %s" (Sim.now sim) (String.concat "; " bad)
      in
      run ())

let suite =
  [
    backoff_capped;
    backoff_monotone;
    backoff_doubles;
    Alcotest.test_case "backoff edge cases" `Quick test_backoff_edges;
    Alcotest.test_case "retry recovers a dropped request" `Quick
      test_retry_recovers_dropped_request;
    Alcotest.test_case "retry abandons, duplicates counted" `Quick
      test_retry_abandons_then_counts_duplicate;
    Alcotest.test_case "retry budget exhausted" `Quick test_retry_budget_exhausted;
    Alcotest.test_case "retry full jitter" `Quick test_retry_full_jitter;
    Alcotest.test_case "admission queue limit" `Quick test_admission_queue_limit;
    Alcotest.test_case "admission ewma sojourn" `Quick test_admission_ewma;
    Alcotest.test_case "admission boundary and zero capacity" `Quick test_admission_edges;
    Alcotest.test_case "admission retune preserves state" `Quick
      test_admission_retune_preserves_state;
    Alcotest.test_case "plan validation" `Quick test_plan_validate;
    Alcotest.test_case "injector deterministic, intensity monotone" `Quick
      test_injector_deterministic_and_monotone;
    Alcotest.test_case "conservation under faults" `Quick test_conservation_under_faults;
    Alcotest.test_case "faults under every policy" `Quick test_faults_under_every_policy;
    Alcotest.test_case "mark-dead re-dispatches queued jobs" `Quick
      test_mark_dead_redispatches_queued_jobs;
    Alcotest.test_case "dead-marked core steals nothing" `Quick
      test_dead_marked_core_steals_nothing;
    Alcotest.test_case "stalled core marked dead then revived" `Quick
      test_stalled_core_marked_dead_then_revived;
    Alcotest.test_case "1/16 cores killed: graceful degradation" `Quick
      test_kill_one_of_16_degrades_gracefully;
    Alcotest.test_case "nic drops recovered by retry" `Quick
      test_nic_drops_recovered_by_retry;
    Alcotest.test_case "dispatcher outage rides through" `Quick
      test_dispatcher_outage_rides_through;
    Alcotest.test_case "admission keeps goodput past saturation" `Quick
      test_admission_protects_goodput_past_saturation;
    Alcotest.test_case "fault runs deterministic" `Quick test_fault_run_deterministic;
    Alcotest.test_case "centralized kill rescues queue" `Quick
      test_centralized_kill_rescues_queue;
    Alcotest.test_case "centralized stall delays but completes" `Quick
      test_centralized_stall_delays_but_completes;
    Alcotest.test_case "caladan kill rescued by stealing" `Quick
      test_caladan_kill_rescued_by_stealing;
    Alcotest.test_case "queued outage is no queued job" `Quick
      test_queued_outage_is_no_queued_job;
    Alcotest.test_case "caladan dead core steals nothing" `Quick
      test_caladan_dead_core_steals_nothing;
    test_aggregates_match_recount;
  ]
