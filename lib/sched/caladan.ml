module Sim = Tq_engine.Sim
module Busy_server = Tq_engine.Busy_server
module Deque = Tq_util.Ring_deque
module Prng = Tq_util.Prng
module Metrics = Tq_workload.Metrics
module Arrivals = Tq_workload.Arrivals
module Span = Tq_obs.Span
module Counters = Tq_obs.Counters

type mode = Iokernel | Directpath

type config = {
  cores : int;
  mode : mode;
  iokernel_op_ns : int;
  directpath_extra_ns : int;
  steal_ns : int;
  finish_ns : int;
  rss_flows : int option;
}

let default_config ~mode ~cores =
  {
    cores;
    mode;
    iokernel_op_ns = 120;
    directpath_extra_ns = 250;
    steal_ns = 200;
    finish_ns = 60;
    rss_flows = None;
  }

type t = {
  sim : Sim.t;
  config : config;
  rng : Prng.t;
  mutable workers : Worker.t array;
  (* Every entry true: with no health tracking a dead core's queue is
     still a steal victim, and [Worker.first_idle] skips the dead. *)
  all_alive : bool array;
  queued : int ref;  (** jobs queued over all workers, kept by [Worker] *)
  iokernel : Arrivals.request Busy_server.t;
  (* Stolen jobs on their way to the thief, in two parallel FIFOs (the
     job, its thief), so a hand-off allocates no pair.  Every hand-off
     takes [steal_ns], so they arrive in the order they left, each with
     one post of [steal_landed]. *)
  hand_off_jobs : Job.t Deque.t;
  hand_off_thieves : Worker.t Deque.t;
  mutable steal_landed : Sim.action;
  metrics : Metrics.t;
  spans_on : bool;
  g_sink : Span.sink;  (** arrivals and RSS steering *)
  d_sink : Span.sink;  (** the IOKernel core, for its outages *)
  c_arrivals : Counters.counter;
  c_dispatches : Counters.counter;
  c_steals : Counters.counter;
  mutable steals : int;
}

(* An idle worker scans for the most loaded victim (the first of the
   longest queues) and steals one job.  Every idle transition lands
   here, and at moderate load nothing is queued anywhere: the shared
   count says so without a scan. *)
let try_steal t (thief : Worker.t) =
  if !(t.queued) > 0 then begin
    (* Some queue holds a job, so there is a victim and a job to take. *)
    let victim = t.workers.(Worker.longest_queue ~alive:t.all_alive t.workers) in
    let job = Worker.steal victim in
    t.steals <- t.steals + 1;
    Counters.incr t.c_steals;
    if t.spans_on then
      Span.record (Worker.sink thief) ~req_id:job.Job.id ~phase:Span.Steal
        ~start_ns:(Sim.now t.sim) ~dur_ns:0 ~arg:(Worker.wid victim);
    Worker.note_assigned thief;
    Deque.push_back t.hand_off_jobs job;
    Deque.push_back t.hand_off_thieves thief;
    Sim.post t.sim ~delay:t.config.steal_ns t.steal_landed
  end

let hand_off t =
  let job = Deque.pop_front t.hand_off_jobs in
  Worker.enqueue (Deque.pop_front t.hand_off_thieves) job

let deliver t (req : Arrivals.request) =
  (* RSS: hash the flow when connection count is modeled, otherwise a
     uniform random core (the many-connections limit). *)
  let widx =
    match t.config.rss_flows with
    | Some flows ->
        Tq_net.Rss.queue_of_flow
          ~flow:(Tq_net.Rss.flow_of_request ~flows req.req_id)
          ~queues:t.config.cores
    | None -> Prng.int t.rng t.config.cores
  in
  let worker = t.workers.(widx) in
  Counters.incr t.c_dispatches;
  if t.spans_on then begin
    (* The span covers the IOKernel op that steered the request. *)
    let cost =
      match t.config.mode with Iokernel -> t.config.iokernel_op_ns | Directpath -> 0
    in
    Span.record t.g_sink ~req_id:req.req_id ~phase:Span.Dispatch
      ~start_ns:(Sim.now t.sim - cost) ~dur_ns:cost ~arg:widx
  end;
  Worker.note_assigned worker;
  if t.spans_on then
    (* steered straight into the core's queue: the hop takes no time *)
    Span.record (Worker.sink worker) ~req_id:req.req_id ~phase:Span.Ring_hop
      ~start_ns:(Sim.now t.sim) ~dur_ns:0 ~arg:widx;
  let job = Job.of_request ~probe_overhead_frac:0.0 req in
  (match t.config.mode with
  | Iokernel -> ()
  | Directpath -> job.remaining_ns <- job.remaining_ns + t.config.directpath_extra_ns);
  (* If the RSS-chosen core is busy and someone is idle, stealing will
     rebalance on the idle core's next transition; also rebalance now so
     an already-idle core picks the job up.  A dead core is never busy
     again, but it is no thief. *)
  Worker.enqueue worker job;
  if Worker.queue_length worker > 0 then begin
    let i = Worker.first_idle ~alive:t.all_alive t.workers in
    if i >= 0 && t.workers.(i) != worker then try_steal t t.workers.(i)
  end

let create sim ~rng ~config ~metrics ?(obs = Tq_obs.Obs.disabled ())
    ?(on_complete = fun (_ : Job.t) -> ()) ?(on_lost = fun (_ : Job.t) -> ()) () =
  if config.cores < 1 then invalid_arg "Caladan.create: need at least one core";
  let on_finish (job : Job.t) =
    Metrics.record metrics ~class_idx:job.class_idx ~arrival_ns:job.arrival_ns
      ~finish_ns:(Sim.now sim) ~service_ns:job.service_ns;
    on_complete job
  in
  let reg = obs.Tq_obs.Obs.counters in
  let deliver_to = ref ignore in
  let t =
    {
      sim;
      config;
      rng;
      workers = [||];
      all_alive = Array.make config.cores true;
      queued = ref 0;
      iokernel = Busy_server.create sim ~serve:(fun req -> !deliver_to req) ();
      hand_off_jobs = Deque.create ();
      hand_off_thieves = Deque.create ();
      steal_landed = Sim.no_action;
      metrics;
      spans_on = Span.enabled obs.Tq_obs.Obs.spans;
      g_sink = Span.register obs.Tq_obs.Obs.spans Span.Global;
      d_sink = Span.register obs.Tq_obs.Obs.spans (Span.Dispatcher 0);
      c_arrivals = Counters.counter reg "dispatch.arrivals";
      c_dispatches = Counters.counter reg "dispatch.decisions";
      c_steals = Counters.counter reg "sched.steals";
      steals = 0;
    }
  in
  deliver_to := deliver t;
  t.steal_landed <- Sim.action sim (fun () -> hand_off t);
  let overheads = { Overheads.zero with finish_ns = config.finish_ns } in
  t.workers <-
    Array.init config.cores (fun wid ->
        (* Each worker's idle hook steals through [t]; it first fires
           once the simulation runs, after [workers] is set. *)
        Worker.create sim ~wid ~rng:(Prng.split rng) ~policy:Worker.Fcfs ~overheads ~obs
          ~queued:t.queued ~on_idle:(fun () -> try_steal t t.workers.(wid))
          ~on_lost ~on_finish ());
  t

let submit t req =
  Counters.incr t.c_arrivals;
  if t.spans_on then
    Span.record t.g_sink ~req_id:req.Arrivals.req_id ~phase:Span.Parse
      ~start_ns:(Sim.now t.sim) ~dur_ns:0 ~arg:req.Arrivals.class_idx;
  match t.config.mode with
  | Directpath -> deliver t req
  | Iokernel ->
      Busy_server.submit t.iokernel ~cost:t.config.iokernel_op_ns req

let steals t = t.steals

let workers t = t.workers

(* {2 Fault hooks}

   There is no dispatcher to do health tracking: a killed core's queued
   jobs wait until some other core goes idle and steals them — rescue by
   work stealing, the only recovery mechanism this architecture has. *)

let inject_stall t ~wid ~duration_ns =
  Worker.inject_stall t.workers.(wid) ~duration_ns

let kill_worker t ~wid =
  Worker.kill t.workers.(wid);
  (* Give an already-idle core a chance to rescue the dead core's queue
     right away; later rescues ride the normal idle transitions. *)
  let i = Worker.first_idle ~alive:t.all_alive t.workers in
  if i >= 0 then try_steal t t.workers.(i)

let lost_jobs t =
  Array.fold_left (fun acc w -> acc + Worker.lost_jobs w) 0 t.workers

let inject_iokernel_outage t ~duration_ns =
  if t.spans_on then
    Span.record t.d_sink ~req_id:(-1) ~phase:Span.Outage ~start_ns:(Sim.now t.sim)
      ~dur_ns:duration_ns ~arg:0;
  (* Meaningful in [Iokernel] mode only: directpath has no central
     forwarding core to blind, so the occupy sits on an unused server. *)
  Busy_server.occupy t.iokernel ~cost:duration_ns

let invariant_violations t = Worker.queued_violations t.workers

(* Instantaneous occupancy, for the time-series sampler. *)
let obs_snapshot t =
  let queued =
    Array.fold_left
      (fun acc w -> acc + Worker.queue_length w)
      (Busy_server.queue_length t.iokernel)
      t.workers
  in
  let in_flight = Array.fold_left (fun acc w -> acc + Worker.unfinished w) 0 t.workers in
  let busy =
    Array.fold_left (fun acc w -> acc + if Worker.is_busy w then 1 else 0) 0 t.workers
  in
  (queued, in_flight, busy)
