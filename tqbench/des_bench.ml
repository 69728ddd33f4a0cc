(* sim_des: the discrete-event simulator on its own, single domain.

   One sweep is six [Experiment.run] calls (TQ, Shinjuku with its
   per-workload quantum, Caladan/IOKernel; each at 50% and 90% of
   16-core capacity) on Table 1 extreme-bimodal for a fixed virtual
   duration.  Every sweep uses the same seed, so every sweep simulates
   the same events; sweeps repeat until the measurement time is spent
   and the wall-clock figures are medians over sweeps. *)

open Common
module Experiment = Tq_sched.Experiment
module Presets = Tq_sched.Presets
module System_intf = Tq_sched.System_intf
module Metrics = Tq_workload.Metrics
module Arrivals = Tq_workload.Arrivals
module Sim = Tq_engine.Sim
module Prng = Tq_util.Prng

let workload = Tq_workload.Table1.extreme_bimodal
let duration_ns = 4_000_000
let slo_ns = 1_000_000
let short_class = 0

let systems =
  [
    ("tq", Presets.tq ());
    ( "shinjuku",
      Presets.shinjuku
        ~quantum_ns:(Presets.shinjuku_quantum_for workload.Tq_workload.Service_dist.name)
        () );
    ("caladan", Presets.caladan ~mode:Tq_sched.Caladan.Iokernel ());
  ]

let loads = [ 0.5; 0.9 ]

type config = { system : string; spec : Experiment.system_spec; load : float; rate_rps : float }

let configs =
  List.concat_map
    (fun (system, spec) ->
      let capacity = Arrivals.capacity_rps ~cores:(System_intf.spec_cores spec) workload in
      List.map (fun load -> { system; spec; load; rate_rps = load *. capacity }) loads)
    systems

let label c = Printf.sprintf "%s@%g" c.system c.load

(* [Experiment.run]'s construction replayed step by step, so the first
   simulated event can be timed (set-up time) and the instance stays in
   hand for the conservation ledger.  Same seed, same splits, same
   order: it simulates exactly what [Experiment.run] does, which
   [check_replay] confirms by comparing event counts. *)
let build ~seed ?on_complete c =
  let sim = Sim.create () in
  let rng = Prng.create ~seed in
  let metrics = Metrics.create ~workload ~warmup_ns:(duration_ns / 10) in
  let inst =
    System_intf.instantiate c.spec sim ~rng:(Prng.split rng) ~metrics
      ?on_complete:(Option.map (fun f -> f sim) on_complete)
      ()
  in
  let issued =
    Arrivals.install sim ~rng:(Prng.split rng) ~workload ~rate_rps:c.rate_rps ~duration_ns
      ~sink:(System_intf.submit inst)
  in
  (sim, inst, issued)

let time_to_first_event ~seed c =
  let t0 = now_ns () in
  let sim, _, _ = build ~seed c in
  ignore (Sim.step sim : bool);
  seconds_since t0

(* Runs the replay to the end and checks request conservation; returns
   the share of post-warm-up requests answered within [slo_ns]. *)
let check_replay ~seed c (reference : Experiment.result) =
  let within = ref 0 and measured = ref 0 in
  let on_complete sim (job : Tq_sched.Job.t) =
    if job.arrival_ns >= duration_ns / 10 then begin
      incr measured;
      if Sim.now sim - job.arrival_ns <= slo_ns then incr within
    end
  in
  let sim, inst, issued = build ~seed ~on_complete c in
  Sim.run sim;
  let name = label c in
  check
    (Sim.events_processed sim = reference.events)
    "%s: replay simulated %d events, Experiment.run %d" name (Sim.events_processed sim)
    reference.events;
  check (!issued = reference.offered) "%s: replay issued %d, Experiment.run %d" name !issued
    reference.offered;
  check (System_intf.in_system inst = 0) "%s: %d requests still in the system after drain"
    name (System_intf.in_system inst);
  check (System_intf.lost_jobs inst = 0) "%s: %d jobs lost without faults" name
    (System_intf.lost_jobs inst);
  (match System_intf.accounting inst with
  | None -> ()
  | Some a ->
      check (a.submitted = !issued) "%s: ledger submitted %d of %d issued" name a.submitted
        !issued;
      check
        (a.submitted = a.accepted + a.rejected)
        "%s: ledger submitted %d <> accepted %d + rejected %d" name a.submitted a.accepted
        a.rejected;
      check
        (a.in_dispatch = 0 && a.on_ring = 0)
        "%s: ledger holds %d in dispatch, %d on rings after drain" name a.in_dispatch
        a.on_ring;
      check
        (a.accepted = a.completed + a.lost + a.dropped_no_worker)
        "%s: ledger accepted %d <> completed %d + lost %d + dropped %d" name a.accepted
        a.completed a.lost a.dropped_no_worker);
  check
    (!measured = Metrics.total_completed reference.metrics)
    "%s: replay completed %d measured requests, Experiment.run %d" name !measured
    (Metrics.total_completed reference.metrics);
  float_of_int !within /. float_of_int (max 1 !measured)

(* One timed Experiment.run; also the benchmark's span around it. *)
type run = {
  c : config;
  r : Experiment.result option;  (** kept for the first sweep only *)
  events : int;
  start_ns : int;
  raw_wall : float;  (** seconds *)
  wall : float;  (** seconds at the nominal host speed *)
}

let run ~seed ~seconds ~trace ~spans_out =
  let seed = Int64.of_int seed in
  ignore (List.map (fun c -> time_to_first_event ~seed c) configs : float list);
  let setups = ref [] and slowdowns = ref [] in
  (* A sweep is pure CPU work on one thread, so its wall-clock figures
     are divided by the host's slowdown (Common.host_slowdown), timed
     just before it.  Each sweep is also preceded by one set-up (build a
     system, process its first event) per configuration, so set-up
     samples spread over the whole run.  Only the first sweep's
     results are kept whole; later sweeps keep their counts, so memory
     does not grow with the run. *)
  let sweep ~keep =
    let slowdown = host_slowdown () in
    slowdowns := slowdown :: !slowdowns;
    List.iter
      (fun c -> setups := (time_to_first_event ~seed c /. slowdown) :: !setups)
      configs;
    List.map
      (fun c ->
        let t0 = now_ns () in
        let r = Experiment.run ~seed ~system:c.spec ~workload ~rate_rps:c.rate_rps ~duration_ns () in
        {
          c;
          r = (if keep then Some r else None);
          events = r.events;
          start_ns = t0;
          raw_wall = seconds_since t0;
          wall = seconds_since t0 /. slowdown;
        })
      configs
  in
  let t_start = now_ns () in
  let first = sweep ~keep:true in
  let sweeps = ref [ first ] in
  while seconds_since t_start < seconds || List.length !sweeps < 3 do
    sweeps := sweep ~keep:false :: !sweeps
  done;
  let sweeps = List.rev !sweeps in
  (* determinism: every sweep reran the same seed *)
  List.iter
    (List.iter2
       (fun r0 r ->
         check (r.events = r0.events) "%s: same seed gave %d then %d events" (label r.c)
           r0.events r.events)
       first)
    sweeps;
  let first = List.map (fun run -> (run.c, Option.get run.r)) first in
  let slo_shares = List.map (fun (c, r) -> (label c, check_replay ~seed c r)) first in
  let offered_per_sweep = List.fold_left (fun acc (_, r) -> acc + r.Experiment.offered) 0 first in
  let sweep_wall s = List.fold_left (fun acc run -> acc +. run.wall) 0.0 s in
  let e2e =
    [
      ( "throughput_rps",
        median (List.map (fun s -> float_of_int offered_per_sweep /. sweep_wall s) sweeps) );
      ("setup_s", median !setups);
      ("peak_rss_mb", peak_rss_mb "self");
    ]
  in
  let per_system name =
    let mine = List.filter (fun (c, _) -> c.system = name) first in
    let wall =
      median (List.map (fun s -> sweep_wall (List.filter (fun run -> run.c.system = name) s)) sweeps)
    in
    let events = List.fold_left (fun acc (_, r) -> acc + r.Experiment.events) 0 mine in
    let busy, span =
      List.fold_left
        (fun (b, d) (_, r) -> (b + r.Experiment.dispatcher_busy_ns, d + r.Experiment.duration_ns))
        (0, 0) mine
    in
    let _, r90 = List.find (fun (c, _) -> c.load = 0.9) mine in
    [
      (Printf.sprintf "des.%s.wall_s" name, wall);
      (Printf.sprintf "des.%s.ns_per_event" name, wall *. 1e9 /. float_of_int events);
      (Printf.sprintf "des.%s.dispatcher_busy_frac" name, float_of_int busy /. float_of_int span);
      (Printf.sprintf "des.%s.events" name, float_of_int events);
      ( Printf.sprintf "des.%s.short_p999_slowdown" name,
        Metrics.slowdown_percentile r90.Experiment.metrics ~class_idx:short_class 99.9 );
    ]
  in
  let layers = List.concat_map (fun (name, _) -> per_system name) systems in
  (match spans_out with
  | Some path when trace ->
      let oc = open_out path in
      output_string oc "span,start_ns,end_ns,events\n";
      List.iter
        (List.iter (fun run ->
             let start = run.start_ns - t_start in
             Printf.fprintf oc "Experiment.run %s,%d,%d,%d\n" (label run.c) start
               (start + int_of_float (run.raw_wall *. 1e9))
               run.events))
        sweeps;
      close_out oc
  | _ -> ());
  let simulated = offered_per_sweep * List.length sweeps in
  ( simulated,
    e2e,
    layers,
    [
      ("sweeps", int (List.length sweeps));
      ("host_slowdown_median", num (median !slowdowns));
      ( "raw_throughput_rps",
        num
          (median
             (List.map
                (fun s ->
                  float_of_int offered_per_sweep
                  /. List.fold_left (fun acc run -> acc +. run.raw_wall) 0.0 s)
                sweeps)) );
      ("virtual_duration_ns", int duration_ns);
      ( "run_wall_p50_us",
        num (median (List.concat_map (List.map (fun run -> run.wall *. 1e6)) sweeps)) );
      ("slo_frac", Json.Obj (List.map (fun (l, share) -> (l, num share)) slo_shares));
      ( "configs",
        Json.List
          (List.map
             (fun c ->
               Json.Obj
                 [ ("system", str c.system); ("load", num c.load); ("rate_rps", num c.rate_rps) ])
             configs) );
    ] )
