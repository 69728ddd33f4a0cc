module Sim = Tq_engine.Sim
module Busy_server = Tq_engine.Busy_server
module Deque = Tq_util.Ring_deque
module Prng = Tq_util.Prng
module Metrics = Tq_workload.Metrics
module Arrivals = Tq_workload.Arrivals
module Span = Tq_obs.Span
module Counters = Tq_obs.Counters

type config = {
  cores : int;
  dispatchers : int;
  quantum_policy : Worker.quantum_policy;
  dispatch_policy : Dispatch_policy.t;
  overheads : Overheads.t;
}

let default_config =
  {
    cores = 16;
    dispatchers = 1;
    quantum_policy = Worker.Ps { quantum_ns = 2_000; per_class_quantum = None };
    dispatch_policy = Dispatch_policy.Jsq_msq;
    overheads = Overheads.tq_default;
  }

type dispatcher = {
  server : Arrivals.request Busy_server.t;
  chooser : Dispatch_policy.chooser;
}

(* Request conservation under faults.  The invariant, checked by the
   fault regression tests:

     accepted = in_dispatch + on_worker + completed + lost
                + dropped_no_worker

   where on_worker is the derived sum of [Worker.unfinished] (which
   already includes jobs riding the ring, because assignment is counted
   at decision time).  [on_ring] is informational. *)
type accounting = {
  mutable submitted : int;
  mutable accepted : int;
  mutable rejected : int;  (** shed by admission control *)
  mutable in_dispatch : int;  (** inside a dispatcher (queued or in service) *)
  mutable on_ring : int;  (** riding a dispatcher->worker ring hop *)
  mutable completed : int;
  mutable lost : int;  (** destroyed by a core failure mid-slice *)
  mutable dropped_no_worker : int;  (** no live core to dispatch to *)
  mutable redispatches : int;  (** rescues off cores believed dead *)
}

type t = {
  sim : Sim.t;
  config : config;
  workers : Worker.t array;
  dispatchers : dispatcher array;
  metrics : Metrics.t;
  spans_on : bool;
  d_sinks : Span.sink array;  (** one per dispatcher lane *)
  c_arrivals : Counters.counter;
  c_dispatches : Counters.counter;
  c_ring_hops : Counters.counter;
  c_redispatches : Counters.counter;
  acct : accounting;
  admission : Admission.t;
  on_reject : Arrivals.request -> unit;
  (* The dispatcher's health estimate per worker — [marked_alive.(i)]
     false means core i is excluded from dispatch.  Distinct from the
     ground truth [Worker.alive]: a stalled core can be believed dead
     (and later revived), a just-killed core can still be believed
     alive until heartbeats catch up. *)
  marked_alive : bool array;
  mutable dead_count : int;
  (* Work stealing (the push+steal variant): an idle core takes half of
     the most-loaded believed-alive core's queued-but-unstarted jobs,
     paying one ring hop for the transfer.  Off by default so the
     classic push-only TQ keeps its exact event stream. *)
  steal : bool;
  c_steals : Counters.counter;
  mutable steals : int;
  mutable steal_items : int;
  (* Jobs riding a dispatcher->worker ring, in three parallel FIFOs (the
     job, its worker index, whether this is its first trip), so a hop
     allocates no tuple.  Every hop takes [ring_hop_ns], so they arrive
     in the order they left, each with one post of [hopped]. *)
  hop_jobs : Job.t Deque.t;
  hop_workers : int Deque.t;
  hop_first : bool Deque.t;
  mutable hopped : Sim.action;
}

(* Idle-core steal-half, the second chance under the dispatcher's
   first-choice placement.  Victim selection is most-loaded among cores
   the dispatcher believes alive; assignment credit moves at steal time
   (thief [note_assigned], victim debited inside [Worker.steal]) so the
   conservation identity holds while the batch rides the transfer
   hop.  A thief marked dead steals nothing: if it then died, nothing
   would rescue what it took, since marking it dead again is a no-op. *)
let try_steal t ~thief_wid =
  let thief = t.workers.(thief_wid) in
  (* The thief's own queue is empty, so it is never the victim. *)
  let best =
    if t.marked_alive.(thief_wid) then Worker.longest_queue ~alive:t.marked_alive t.workers
    else -1
  in
  if best >= 0 then begin
    let victim = t.workers.(best) in
    let len = Worker.queue_length victim in
    let want = len - (len / 2) in
    let rec grab k acc =
      if k = 0 then acc
      else
        let job = Worker.steal victim in
        if job == Job.none then acc else grab (k - 1) (job :: acc)
    in
    let jobs = grab want [] in
    if jobs <> [] then begin
      let n = List.length jobs in
      t.steals <- t.steals + 1;
      t.steal_items <- t.steal_items + n;
      Counters.incr t.c_steals;
      List.iter
        (fun (job : Job.t) ->
          Worker.note_assigned thief;
          if t.spans_on then
            Span.record (Worker.sink thief) ~req_id:job.Job.id ~phase:Span.Steal
              ~start_ns:(Sim.now t.sim) ~dur_ns:0 ~arg:best)
        jobs;
      ignore
        (Sim.schedule_after t.sim ~delay:t.config.overheads.ring_hop_ns (fun () ->
             List.iter (fun job -> Worker.enqueue thief job) jobs)
          : Sim.event)
    end
  end

let in_system t =
  t.acct.accepted - t.acct.completed - t.acct.lost - t.acct.dropped_no_worker

(* Pick a worker the dispatcher believes alive; -1 if none is. *)
let[@inline] pick_worker t (d : dispatcher) =
  if t.dead_count >= Array.length t.workers then -1
  else Dispatch_policy.choose d.chooser ~alive:t.marked_alive t.workers

let rec send_over_ring t job widx ~first =
  t.acct.on_ring <- t.acct.on_ring + 1;
  Deque.push_back t.hop_jobs job;
  Deque.push_back t.hop_workers widx;
  Deque.push_back t.hop_first first;
  Sim.post t.sim ~delay:t.config.overheads.ring_hop_ns t.hopped

and hop t =
  let job = Deque.pop_front t.hop_jobs and widx = Deque.pop_front t.hop_workers in
  let first = Deque.pop_front t.hop_first in
  t.acct.on_ring <- t.acct.on_ring - 1;
  Counters.incr t.c_ring_hops;
  (* Only the first trip is the request's ring-hop boundary: a rescued
     job's second hop would give it two, and [Profile] would drop it. *)
  if t.spans_on && first then
    Span.record (Worker.sink t.workers.(widx)) ~req_id:job.Job.id ~phase:Span.Ring_hop
      ~start_ns:(Sim.now t.sim) ~dur_ns:0 ~arg:widx;
  if t.marked_alive.(widx) then begin
    Worker.enqueue t.workers.(widx) job;
    (* Deliver-time steal trigger: if the placement left a queue
       behind a busy core while some other core sits idle, let the
       idle core pull immediately rather than waiting for its next
       idle transition (which may never fire if it is already
       parked). *)
    if t.steal && Worker.queue_length t.workers.(widx) > 0 then begin
      (* A live core that is not busy has an empty queue, and [widx],
         with a queue, is busy or dead: the thief is some other core. *)
      let thief = Worker.first_idle ~alive:t.marked_alive t.workers in
      if thief >= 0 then try_steal t ~thief_wid:thief
    end
  end
  else begin
    (* The core was marked dead while this job was on the ring; its
       queue was already drained, so take the job back and rescue it
       ourselves. *)
    Worker.note_unassigned t.workers.(widx);
    redispatch t ~from:widx job
  end

(* Rescue spans sit on the lane of the core the job is rescued from. *)
and redispatch t ~from job =
  let d = t.dispatchers.(job.Job.id mod Array.length t.dispatchers) in
  let widx = pick_worker t d in
  if widx < 0 then begin
    t.acct.dropped_no_worker <- t.acct.dropped_no_worker + 1;
    if t.spans_on then
      Span.record (Worker.sink t.workers.(from)) ~req_id:job.Job.id ~phase:Span.Drop
        ~start_ns:(Sim.now t.sim) ~dur_ns:0 ~arg:Span.drop_no_worker
  end
  else begin
    t.acct.redispatches <- t.acct.redispatches + 1;
    Counters.incr t.c_redispatches;
    if t.spans_on then
      Span.record (Worker.sink t.workers.(from)) ~req_id:job.Job.id ~phase:Span.Redispatch
        ~start_ns:(Sim.now t.sim) ~dur_ns:0 ~arg:widx;
    Worker.note_assigned t.workers.(widx);
    send_over_ring t job widx ~first:false
  end

(* Dispatcher [d_idx] finished its op on [req]: place the job. *)
let dispatched t d_idx (req : Arrivals.request) =
  let d = t.dispatchers.(d_idx) in
  t.acct.in_dispatch <- t.acct.in_dispatch - 1;
  let widx = pick_worker t d in
  if widx < 0 then begin
    t.acct.dropped_no_worker <- t.acct.dropped_no_worker + 1;
    if t.spans_on then
      Span.record t.d_sinks.(d_idx) ~req_id:req.req_id ~phase:Span.Drop
        ~start_ns:(Sim.now t.sim) ~dur_ns:0 ~arg:Span.drop_no_worker
  end
  else begin
    let worker = t.workers.(widx) in
    Counters.incr t.c_dispatches;
    if t.spans_on then begin
      (* The span covers the dispatcher op that ends in this decision. *)
      let cost = t.config.overheads.dispatch_ns in
      Span.record t.d_sinks.(d_idx) ~req_id:req.req_id ~phase:Span.Dispatch
        ~start_ns:(Sim.now t.sim - cost) ~dur_ns:cost ~arg:widx
    end;
    Worker.note_assigned worker;
    let job =
      Job.of_request ~probe_overhead_frac:t.config.overheads.probe_overhead_frac req
    in
    send_over_ring t job widx ~first:true
  end

let create sim ~rng ~config ~metrics ?(obs = Tq_obs.Obs.disabled ())
    ?(admission = Admission.Accept_all) ?(steal = false)
    ?(on_complete = fun (_ : Job.t) -> ())
    ?(on_reject = fun (_ : Arrivals.request) -> ())
    ?(on_lost = fun (_ : Job.t) -> ()) () =
  if config.cores < 1 then invalid_arg "Two_level.create: need at least one core";
  if config.dispatchers < 1 then
    invalid_arg "Two_level.create: need at least one dispatcher";
  let ov = config.overheads in
  let acct =
    {
      submitted = 0;
      accepted = 0;
      rejected = 0;
      in_dispatch = 0;
      on_ring = 0;
      completed = 0;
      lost = 0;
      dropped_no_worker = 0;
      redispatches = 0;
    }
  in
  let admission = Admission.create admission in
  let on_finish (job : Job.t) =
    let now = Sim.now sim in
    Metrics.record metrics ~class_idx:job.class_idx ~arrival_ns:job.arrival_ns
      ~finish_ns:now ~service_ns:job.service_ns;
    acct.completed <- acct.completed + 1;
    Admission.note_completion admission ~sojourn_ns:(now - job.arrival_ns);
    on_complete job
  in
  let on_lost (job : Job.t) =
    acct.lost <- acct.lost + 1;
    on_lost job
  in
  (* Worker idle hooks (with stealing on) and dispatcher completions
     need [t], which needs the workers and the dispatchers — tie the
     knot through a ref they read when they fire (only once the
     simulation runs, well after [create] returns). *)
  let t_ref = ref None in
  let workers =
    Array.init config.cores (fun wid ->
        let on_idle () =
          if steal then
            match !t_ref with Some t -> try_steal t ~thief_wid:wid | None -> ()
        in
        Worker.create sim ~wid ~rng:(Prng.split rng) ~policy:config.quantum_policy
          ~overheads:ov ~obs ~on_lost ~on_finish ~on_idle ())
  in
  let dispatchers =
    Array.init config.dispatchers (fun d_idx ->
        {
          server =
            Busy_server.create sim
              ~serve:(fun req ->
                match !t_ref with Some t -> dispatched t d_idx req | None -> ())
              ();
          chooser = Dispatch_policy.make_chooser config.dispatch_policy ~rng:(Prng.split rng);
        })
  in
  let reg = obs.Tq_obs.Obs.counters in
  let t =
    {
      sim;
      config;
      workers;
      dispatchers;
      metrics;
      spans_on = Span.enabled obs.Tq_obs.Obs.spans;
      d_sinks =
        Array.init config.dispatchers (fun d ->
            Span.register obs.Tq_obs.Obs.spans (Span.Dispatcher d));
      c_arrivals = Counters.counter reg "dispatch.arrivals";
      c_dispatches = Counters.counter reg "dispatch.decisions";
      c_ring_hops = Counters.counter reg "dispatch.ring_hops";
      c_redispatches = Counters.counter reg "dispatch.redispatches";
      acct;
      admission;
      on_reject;
      marked_alive = Array.make config.cores true;
      dead_count = 0;
      steal;
      c_steals = Counters.counter reg "sched.steals";
      steals = 0;
      steal_items = 0;
      hop_jobs = Deque.create ();
      hop_workers = Deque.create ();
      hop_first = Deque.create ();
      hopped = Sim.no_action;
    }
  in
  t.hopped <- Sim.action sim (fun () -> hop t);
  t_ref := Some t;
  t

let submit t req =
  let ov = t.config.overheads in
  t.acct.submitted <- t.acct.submitted + 1;
  (* RSS across dispatcher cores; each balances over all workers using
     the shared (worker-maintained) counters. *)
  let d_idx = req.Arrivals.req_id mod Array.length t.dispatchers in
  let d = t.dispatchers.(d_idx) in
  Counters.incr t.c_arrivals;
  if t.spans_on then
    Span.record t.d_sinks.(d_idx) ~req_id:req.Arrivals.req_id ~phase:Span.Parse
      ~start_ns:(Sim.now t.sim) ~dur_ns:0 ~arg:req.Arrivals.class_idx;
  if not (Admission.admit t.admission ~in_system:(in_system t)) then begin
    (* Shed before any dispatch cost is paid — overload protection is
       only protection if saying no is cheap. *)
    t.acct.rejected <- t.acct.rejected + 1;
    Metrics.record_rejection t.metrics;
    if t.spans_on then
      Span.record t.d_sinks.(d_idx) ~req_id:req.Arrivals.req_id ~phase:Span.Shed
        ~start_ns:(Sim.now t.sim) ~dur_ns:0 ~arg:req.Arrivals.class_idx;
    t.on_reject req
  end
  else begin
    t.acct.accepted <- t.acct.accepted + 1;
    t.acct.in_dispatch <- t.acct.in_dispatch + 1;
    Busy_server.submit d.server ~cost:ov.dispatch_ns req
  end

(* {2 Live retuning (the feedback controller's actuators)} *)

let set_quantum t ?class_idx ~quantum_ns () =
  Array.iter (fun w -> Worker.set_quantum w ?class_idx ~quantum_ns ()) t.workers

let set_admission_policy t policy = Admission.set_policy t.admission policy
let admission t = t.admission

(* {2 Health tracking} *)

let mark_worker_dead t ~wid =
  if t.marked_alive.(wid) then begin
    t.marked_alive.(wid) <- false;
    t.dead_count <- t.dead_count + 1;
    if t.spans_on then
      Span.record (Worker.sink t.workers.(wid)) ~req_id:(-1) ~phase:Span.Mark_dead
        ~start_ns:(Sim.now t.sim) ~dur_ns:0 ~arg:wid;
    (* Rescue queued-but-unstarted jobs; anything mid-slice stays with
       the core (a merely-stalled core will still finish it). *)
    List.iter (fun job -> redispatch t ~from:wid job) (Worker.drain t.workers.(wid))
  end

let mark_worker_alive t ~wid =
  if not t.marked_alive.(wid) then begin
    t.marked_alive.(wid) <- true;
    t.dead_count <- t.dead_count - 1;
    if t.spans_on then
      Span.record (Worker.sink t.workers.(wid)) ~req_id:(-1) ~phase:Span.Mark_alive
        ~start_ns:(Sim.now t.sim) ~dur_ns:0 ~arg:wid
  end

let worker_marked_alive t ~wid = t.marked_alive.(wid)

let install_health_monitor t ~interval_ns ~until_ns ?(missed_heartbeats = 2) () =
  if interval_ns <= 0 then
    invalid_arg "Two_level.install_health_monitor: interval must be positive";
  if missed_heartbeats < 1 then
    invalid_arg "Two_level.install_health_monitor: missed_heartbeats must be >= 1";
  let missed = Array.make (Array.length t.workers) 0 in
  Sim.periodic t.sim ~until:until_ns ~interval:interval_ns (fun () ->
      Array.iteri
        (fun i w ->
          if Worker.responsive w then begin
            missed.(i) <- 0;
            (* Suspicion was wrong (a stall, not a death): readmit. *)
            if not t.marked_alive.(i) then mark_worker_alive t ~wid:i
          end
          else begin
            missed.(i) <- missed.(i) + 1;
            if missed.(i) >= missed_heartbeats && t.marked_alive.(i) then
              mark_worker_dead t ~wid:i
          end)
        t.workers)

(* {2 Fault hooks} *)

let inject_dispatcher_outage t ~dispatcher ~duration_ns =
  if dispatcher < 0 || dispatcher >= Array.length t.dispatchers then
    invalid_arg "Two_level.inject_dispatcher_outage: bad dispatcher index";
  if t.spans_on then
    Span.record t.d_sinks.(dispatcher) ~req_id:(-1) ~phase:Span.Outage
      ~start_ns:(Sim.now t.sim) ~dur_ns:duration_ns ~arg:dispatcher;
  Busy_server.occupy t.dispatchers.(dispatcher).server ~cost:duration_ns

let dispatcher_busy_ns t =
  Array.fold_left (fun acc d -> acc + Busy_server.busy_time d.server) 0 t.dispatchers

let dispatcher_queue_length t =
  Array.fold_left (fun acc d -> acc + Busy_server.queue_length d.server) 0 t.dispatchers

let max_dispatcher_busy_ns t =
  Array.fold_left (fun acc d -> max acc (Busy_server.busy_time d.server)) 0 t.dispatchers

let workers t = t.workers

(* Each worker keeps a queued-job count of its own; nothing here reads
   them, but the check keeps [Worker]'s bookkeeping honest under TQ's
   LAS rotation, steals and drains. *)
let invariant_violations t =
  List.concat_map (fun w -> Worker.queued_violations [| w |]) (Array.to_list t.workers)

let accounting t = t.acct
let steals t = t.steals
let steal_items t = t.steal_items
let alive_worker_count t = Array.length t.workers - t.dead_count

(* Instantaneous occupancy, for the time-series sampler: total queued
   jobs (dispatcher + worker queues), jobs in the system, busy cores.
   Dead workers' queues are included — a queued job on a core believed
   dead is still in the system until drained (redispatch) or lost, so
   the snapshot and the [accounting] record never disagree about it. *)
let obs_snapshot t =
  let queued =
    Array.fold_left (fun acc w -> acc + Worker.queue_length w) (dispatcher_queue_length t)
      t.workers
  in
  let in_flight = Array.fold_left (fun acc w -> acc + Worker.unfinished w) 0 t.workers in
  let busy = Array.fold_left (fun acc w -> acc + if Worker.is_busy w then 1 else 0) 0 t.workers in
  (queued, in_flight, busy)
