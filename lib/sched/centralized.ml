module Sim = Tq_engine.Sim
module Busy_server = Tq_engine.Busy_server
module Deque = Tq_util.Ring_deque
module Metrics = Tq_workload.Metrics
module Arrivals = Tq_workload.Arrivals
module Span = Tq_obs.Span
module Counters = Tq_obs.Counters

type config = {
  cores : int;
  quantum_ns : int option;
  net_op_ns : int;
  sched_op_ns : int;
  sched_scan_per_core_ns : int;
  preempt_ns : int;
  probe_overhead_frac : float;
}

let ideal_config ~quantum_ns ~cores =
  {
    cores;
    quantum_ns = Some quantum_ns;
    net_op_ns = 0;
    sched_op_ns = 0;
    sched_scan_per_core_ns = 0;
    preempt_ns = 0;
    probe_overhead_frac = 0.0;
  }

let shinjuku_config ~quantum_ns ~cores =
  {
    cores;
    quantum_ns = Some quantum_ns;
    net_op_ns = 100;
    sched_op_ns = 130;
    sched_scan_per_core_ns = 10;
    preempt_ns = 1_000;
    probe_overhead_frac = 0.0;
  }

(* A dispatcher-core operation is admitting an arrival or assigning a
   quantum of a job to a worker; both occupy the single dispatcher.  The
   dispatcher queues an op as an int, the worker index of an assignment
   or [admit_op], and its payload waits in a FIFO of its kind
   ([admits], [assigns]): the dispatcher serves ops in order, so it
   serves each kind in order too, and an op allocates no cell. *)
let admit_op = -1

type t = {
  sim : Sim.t;
  mutable config : config;  (** mutable so the quantum can be retuned live *)
  queue : Job.t Deque.t;  (** central pending/preempted jobs, PS order *)
  busy : bool array;  (** worker executing a slice *)
  inflight : bool array;  (** an assignment for this worker is at the dispatcher *)
  first_assign : bool array;  (** ...and it is its job's first *)
  pending : Job.t array;  (** assignment delivered while still busy, or [Job.none] *)
  (* A core is open to a new assignment when it has none in flight, none
     parked and is not dead.  [open_w] and [open_count] are kept by
     [set_inflight], [set_pending] and [set_dead], the only writers of
     [inflight], [pending] and [dead_w], so [kick] learns that no core
     is open without a scan. *)
  open_w : bool array;
  mutable open_count : int;
  dispatcher : int Busy_server.t;
  admits : Arrivals.request Deque.t;
  assigns : Job.t Deque.t;
  metrics : Metrics.t;
  last_end : int array;  (** per-worker last slice end time *)
  (* Fault state: a stalled worker serves its blackout between slices
     ([busy] held true so the dispatcher parks assignments in
     [pending]); a dead worker loses its in-flight slice and has its
     parked assignment returned to the central queue. *)
  stall_pending : int array;
  in_stall : bool array;
  dead_w : bool array;
  (* The slice in flight per worker, ended by its [core_done] action,
     which also ends a blackout ([in_stall]). *)
  slice_job : Job.t array;
  slice_ns : int array;
  slice_overhead : int array;
  slice_finishes : bool array;
  core_done : Sim.action array;
  mutable lost : int;
  on_complete : Job.t -> unit;
  on_lost : Job.t -> unit;
  spans_on : bool;
  d_sink : Span.sink;
  w_sinks : Span.sink array;  (** one per worker lane *)
  c_arrivals : Counters.counter;
  c_assigns : Counters.counter;
  c_quanta : Counters.counter;
  c_preemptions : Counters.counter;
  c_completions : Counters.counter;
  mutable gap_sum : int;
  mutable gap_count : int;
  mutable slice_sum : int;
  mutable slice_count : int;
}

let refresh_open t wid =
  let now_open = not (t.inflight.(wid) || t.pending.(wid) != Job.none || t.dead_w.(wid)) in
  if now_open <> t.open_w.(wid) then begin
    t.open_w.(wid) <- now_open;
    t.open_count <- (if now_open then t.open_count + 1 else t.open_count - 1)
  end

let set_inflight t wid b =
  t.inflight.(wid) <- b;
  refresh_open t wid

let set_pending t wid job =
  t.pending.(wid) <- job;
  refresh_open t wid

let set_dead t wid =
  t.dead_w.(wid) <- true;
  refresh_open t wid

(* The dispatcher-core cost of one assignment op. *)
let assign_cost t = t.config.sched_op_ns + (t.config.sched_scan_per_core_ns * t.config.cores)

(* An assignment op left the dispatcher core: the decision is made.  A
   job's first one is its dispatch, spanned over the op, and its hop to
   the core; later quanta and re-steered parked jobs pay ops too. *)
let note_assign t ~(job : Job.t) ~wid =
  Counters.incr t.c_assigns;
  if t.spans_on && t.first_assign.(wid) then begin
    let cost = assign_cost t and now = Sim.now t.sim in
    Span.record t.d_sink ~req_id:job.Job.id ~phase:Span.Dispatch ~start_ns:(now - cost)
      ~dur_ns:cost ~arg:wid;
    Span.record t.w_sinks.(wid) ~req_id:job.Job.id ~phase:Span.Ring_hop ~start_ns:now
      ~dur_ns:0 ~arg:wid
  end

(* The worker the next assignment goes to: the first open idle one,
   else the first open busy one; -1 if none.  It runs on every kick, so
   it answers -1 from the count when no core is open, and otherwise is
   one index pass over [open_w] and [busy], not a closure. *)
let free_worker t =
  if t.open_count = 0 then -1
  else begin
    let n = Array.length t.busy in
    let idle = ref (-1) and busy = ref (-1) and w = ref 0 in
    while !idle < 0 && !w < n do
      let i = !w in
      if t.open_w.(i) then
        if not t.busy.(i) then idle := i else if !busy < 0 then busy := i;
      incr w
    done;
    if !idle >= 0 then !idle else !busy
  end

(* First worker other than [thief] holding a parked assignment; -1 if
   none. *)
let parked_victim t ~thief =
  let n = Array.length t.pending in
  let w = ref 0 in
  while !w < n && (t.pending.(!w) == Job.none || !w = thief) do
    incr w
  done;
  if !w < n then !w else -1

(* The dispatcher pipelines: it may prepare the *next* assignment for a
   worker while that worker still runs its current slice (one
   outstanding assignment per worker, like a mailbox).  The worker then
   switches with no dispatcher-induced gap — unless the dispatcher
   cannot keep up, which is exactly the Figure 16 bottleneck. *)
let rec kick t =
  if not (Deque.is_empty t.queue) then begin
    (* Prefer idle workers, then busy ones lacking a prefetched job. *)
    let wid = free_worker t in
    if wid >= 0 then begin
      let job = Deque.pop_front t.queue in
      assign t ~job ~wid ~first:(job.serviced_quanta = 0);
      kick t
    end
  end

(* Sends [job] through the dispatcher core towards worker [wid]. *)
and assign t ~job ~wid ~first =
  set_inflight t wid true;
  t.first_assign.(wid) <- first;
  Deque.push_back t.assigns job;
  Busy_server.submit t.dispatcher ~cost:(assign_cost t) wid

(* An op left the dispatcher core. *)
and served t op =
  if op = admit_op then begin
    let req = Deque.pop_front t.admits in
    let job = Job.of_request ~probe_overhead_frac:t.config.probe_overhead_frac req in
    Deque.push_back t.queue job;
    kick t
  end
  else begin
    let job = Deque.pop_front t.assigns and wid = op in
    set_inflight t wid false;
    if t.dead_w.(wid) then begin
      (* The core died while the assignment was being prepared: the
         job goes back to the head of the central queue. *)
      Deque.push_front t.queue job;
      kick t
    end
    else begin
      note_assign t ~job ~wid;
      if t.busy.(wid) then set_pending t wid job else start_slice t ~job ~wid;
      (* Keep the pipeline primed: prepare the next assignment while
         slices run. *)
      kick t
    end
  end

and start_slice t ~job ~wid =
  let now = Sim.now t.sim in
  if t.last_end.(wid) >= 0 then begin
    (* Idle time between the previous slice ending and this one starting
       is dispatcher-induced delay. *)
    t.gap_sum <- t.gap_sum + (now - t.last_end.(wid));
    t.gap_count <- t.gap_count + 1
  end;
  t.busy.(wid) <- true;
  let slice, finishes =
    match t.config.quantum_ns with
    | None -> (job.remaining_ns, true)
    | Some q -> if job.remaining_ns <= q then (job.remaining_ns, true) else (q, false)
  in
  let overhead = if finishes then 0 else t.config.preempt_ns in
  t.slice_sum <- t.slice_sum + slice;
  t.slice_count <- t.slice_count + 1;
  t.slice_job.(wid) <- job;
  t.slice_ns.(wid) <- slice;
  t.slice_overhead.(wid) <- overhead;
  t.slice_finishes.(wid) <- finishes;
  Sim.post t.sim ~delay:(slice + overhead) t.core_done.(wid)

and end_slice t ~wid =
  let job = t.slice_job.(wid) in
  if t.dead_w.(wid) then begin
    (* The core died mid-slice: the job's state is gone. *)
    t.lost <- t.lost + 1;
    t.busy.(wid) <- false;
    t.on_lost job;
    rescue_pending t ~wid
  end
  else begin
    let slice = t.slice_ns.(wid) and finishes = t.slice_finishes.(wid) in
    job.remaining_ns <- job.remaining_ns - slice;
    job.serviced_quanta <- job.serviced_quanta + 1;
    Counters.incr t.c_quanta;
    let end_ns = Sim.now t.sim in
    if t.spans_on then begin
      let ran = slice + t.slice_overhead.(wid) in
      Span.record t.w_sinks.(wid) ~req_id:job.Job.id ~phase:Span.Quantum
        ~start_ns:(end_ns - ran) ~dur_ns:ran
        ~arg:(if finishes then 1 else 0)
    end;
    if finishes then begin
      Counters.incr t.c_completions;
      if t.spans_on then
        Span.record t.w_sinks.(wid) ~req_id:job.Job.id ~phase:Span.Reply_flush
          ~start_ns:end_ns ~dur_ns:0 ~arg:job.class_idx;
      Metrics.record t.metrics ~class_idx:job.class_idx ~arrival_ns:job.arrival_ns
        ~finish_ns:(Sim.now t.sim) ~service_ns:job.service_ns;
      t.on_complete job
    end
    else begin
      Counters.incr t.c_preemptions;
      Deque.push_back t.queue job
    end;
    t.last_end.(wid) <- Sim.now t.sim;
    t.busy.(wid) <- false;
    after_slice t ~wid
  end

(* A dead core's parked assignment goes back to the central queue — the
   dispatcher owns all state in this model, so rescue is immediate. *)
and rescue_pending t ~wid =
  let job = t.pending.(wid) in
  if job != Job.none then begin
    set_pending t wid Job.none;
    Deque.push_front t.queue job;
    kick t
  end

(* What a worker does after a slice (or blackout window) ends: serve any
   injected stall first — [busy] stays true so assignments park in
   [pending] — then pick up parked work and re-prime the pipeline. *)
and after_slice t ~wid =
  if t.dead_w.(wid) then rescue_pending t ~wid
  else if t.stall_pending.(wid) > 0 then begin
    let d = t.stall_pending.(wid) in
    t.stall_pending.(wid) <- 0;
    t.busy.(wid) <- true;
    t.in_stall.(wid) <- true;
    if t.spans_on then
      Span.record t.w_sinks.(wid) ~req_id:(-1) ~phase:Span.Stall ~start_ns:(Sim.now t.sim)
        ~dur_ns:d ~arg:wid;
    Sim.post t.sim ~delay:d t.core_done.(wid)
  end
  else begin
    let next = t.pending.(wid) in
    if next != Job.none then begin
      set_pending t wid Job.none;
      start_slice t ~job:next ~wid
    end;
    kick t;
    (* Work conservation: an idle worker with nothing to do poaches
       an assignment parked at a busy worker (the dispatcher pays
       another op to re-steer it). *)
    if (not t.busy.(wid)) && not t.inflight.(wid) then begin
      let victim = parked_victim t ~thief:wid in
      if victim >= 0 then begin
        let job = t.pending.(victim) in
        set_pending t victim Job.none;
        assign t ~job ~wid ~first:false
      end
    end
  end

and end_stall t ~wid =
  t.in_stall.(wid) <- false;
  t.busy.(wid) <- false;
  after_slice t ~wid

let create sim ~rng:_ ~config ~metrics ?(obs = Tq_obs.Obs.disabled ())
    ?(on_complete = fun (_ : Job.t) -> ()) ?(on_lost = fun (_ : Job.t) -> ()) () =
  if config.cores < 1 then invalid_arg "Centralized.create: need at least one core";
  let reg = obs.Tq_obs.Obs.counters in
  let cores = config.cores in
  (* The dispatcher and the cores' actions need [t]: tie the knot once
     it is built. *)
  let serve = ref ignore in
  let t =
    {
      sim;
      config;
      queue = Deque.create ();
      busy = Array.make cores false;
      inflight = Array.make cores false;
      first_assign = Array.make cores false;
      pending = Array.make cores Job.none;
      open_w = Array.make cores true;
      open_count = cores;
      dispatcher = Busy_server.create sim ~serve:(fun op -> !serve op) ();
      admits = Deque.create ();
      assigns = Deque.create ();
      metrics;
      last_end = Array.make cores (-1);
      stall_pending = Array.make cores 0;
      in_stall = Array.make cores false;
      dead_w = Array.make cores false;
      slice_job = Array.make cores Job.none;
      slice_ns = Array.make cores 0;
      slice_overhead = Array.make cores 0;
      slice_finishes = Array.make cores false;
      core_done = Array.make cores Sim.no_action;
      lost = 0;
      on_complete;
      on_lost;
      spans_on = Span.enabled obs.Tq_obs.Obs.spans;
      d_sink = Span.register obs.Tq_obs.Obs.spans (Span.Dispatcher 0);
      w_sinks =
        Array.init cores (fun wid -> Span.register obs.Tq_obs.Obs.spans (Span.Worker wid));
      c_arrivals = Counters.counter reg "dispatch.arrivals";
      c_assigns = Counters.counter reg "dispatch.decisions";
      c_quanta = Counters.counter reg "worker.quanta";
      c_preemptions = Counters.counter reg "worker.yields";
      c_completions = Counters.counter reg "worker.completions";
      gap_sum = 0;
      gap_count = 0;
      slice_sum = 0;
      slice_count = 0;
    }
  in
  serve := served t;
  for wid = 0 to cores - 1 do
    t.core_done.(wid) <-
      Sim.action sim (fun () ->
          if t.in_stall.(wid) then end_stall t ~wid else end_slice t ~wid)
  done;
  t

let submit t req =
  Counters.incr t.c_arrivals;
  if t.spans_on then
    Span.record t.d_sink ~req_id:req.Arrivals.req_id ~phase:Span.Parse
      ~start_ns:(Sim.now t.sim) ~dur_ns:0 ~arg:req.Arrivals.class_idx;
  Deque.push_back t.admits req;
  Busy_server.submit t.dispatcher ~cost:t.config.net_op_ns admit_op

(* {2 Fault hooks} *)

let check_wid t ~fn wid =
  if wid < 0 || wid >= t.config.cores then
    invalid_arg (Printf.sprintf "Centralized.%s: bad worker index" fn)

let inject_stall t ~wid ~duration_ns =
  check_wid t ~fn:"inject_stall" wid;
  if duration_ns <= 0 then
    invalid_arg "Centralized.inject_stall: duration must be positive";
  if not t.dead_w.(wid) then begin
    t.stall_pending.(wid) <- t.stall_pending.(wid) + duration_ns;
    if not t.busy.(wid) then after_slice t ~wid
  end

let kill_worker t ~wid =
  check_wid t ~fn:"kill_worker" wid;
  if not t.dead_w.(wid) then begin
    set_dead t wid;
    t.stall_pending.(wid) <- 0;
    if t.spans_on then
      Span.record t.w_sinks.(wid) ~req_id:(-1) ~phase:Span.Kill ~start_ns:(Sim.now t.sim)
        ~dur_ns:0 ~arg:wid;
    (* A busy core's in-flight slice (or stall) closure observes the
       death and rescues; an idle core only needs its mailbox cleared. *)
    if not t.busy.(wid) then rescue_pending t ~wid
  end

let lost_jobs t = t.lost

(* Centralized preemption has one global quantum (the dispatcher decides
   every slice), so per-class retuning degrades to the global knob. *)
let set_quantum t ?class_idx:_ ~quantum_ns () =
  if quantum_ns <= 0 then invalid_arg "Centralized.set_quantum: quantum must be positive";
  match t.config.quantum_ns with
  | None -> ()  (* FCFS mode has no quantum to retune *)
  | Some _ -> t.config <- { t.config with quantum_ns = Some quantum_ns }

let inject_dispatcher_outage t ~duration_ns =
  if t.spans_on then
    Span.record t.d_sink ~req_id:(-1) ~phase:Span.Outage ~start_ns:(Sim.now t.sim)
      ~dur_ns:duration_ns ~arg:0;
  Busy_server.occupy t.dispatcher ~cost:duration_ns

let mean_sched_gap_ns t =
  if t.gap_count = 0 then nan else float_of_int t.gap_sum /. float_of_int t.gap_count

let mean_effective_quantum_ns t =
  if t.gap_count = 0 || t.slice_count = 0 then nan
  else (float_of_int t.slice_sum /. float_of_int t.slice_count) +. mean_sched_gap_ns t

let dispatcher_busy_ns t = Busy_server.busy_time t.dispatcher

let invariant_violations t =
  let open_now w = not (t.inflight.(w) || t.pending.(w) != Job.none || t.dead_w.(w)) in
  let recount = ref 0 and bad = ref [] in
  for w = Array.length t.open_w - 1 downto 0 do
    if open_now w then incr recount;
    if open_now w <> t.open_w.(w) then
      bad :=
        Printf.sprintf "core %d open flag is %b, its state says %b" w t.open_w.(w) (open_now w)
        :: !bad
  done;
  if t.open_count <> !recount then
    bad := Printf.sprintf "open count %d, recount %d" t.open_count !recount :: !bad;
  !bad

(* Instantaneous occupancy, for the time-series sampler.  A core serving
   an injected blackout holds [busy] (to park assignments) but executes
   no job, so it counts as neither busy nor in-flight work. *)
let obs_snapshot t =
  let busy = ref 0 in
  Array.iteri (fun w b -> if b && not t.in_stall.(w) then incr busy) t.busy;
  let pending =
    Array.fold_left (fun acc p -> acc + if p == Job.none then 0 else 1) 0 t.pending
  in
  let queued = Deque.length t.queue + Busy_server.queue_length t.dispatcher in
  (queued, queued + pending + !busy, !busy)
