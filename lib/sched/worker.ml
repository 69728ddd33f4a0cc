module Sim = Tq_engine.Sim
module Deque = Tq_util.Ring_deque
module Prng = Tq_util.Prng
module Span = Tq_obs.Span
module Counters = Tq_obs.Counters

type quantum_policy =
  | Ps of { quantum_ns : int; per_class_quantum : int array option }
  | Fcfs
  | Las of { base_quantum_ns : int; max_quantum_ns : int }

type t = {
  sim : Sim.t;
  wid : int;
  rng : Prng.t;
  mutable policy : quantum_policy;
  ov : Overheads.t;
  queue : Job.t Deque.t;
  (* Jobs queued over every worker sharing this count: each push onto
     [queue] adds one and each pop takes one away. *)
  queued : int ref;
  on_finish : Job.t -> unit;
  on_idle : unit -> unit;
  on_lost : Job.t -> unit;
  spans_on : bool;
  sink : Span.sink;  (** this core's lane, shared with the system that owns it *)
  c_quanta : Counters.counter;
  c_yields : Counters.counter;
  c_completions : Counters.counter;
  d_overshoot : Counters.dist;
  mutable busy : bool;
  mutable assigned : int;
  mutable finished : int;
  mutable current_quanta : int;
  mutable busy_ns : int;
  (* Fault-injection state (tq_fault).  A stall models a core blackout
     (GC pause, SMI, antagonist): it is served between quanta, so it
     delays but never corrupts the running slice.  A killed core loses
     its in-flight slice; queued jobs stay put for [drain] (dispatcher
     rescue) or [steal] (Caladan). *)
  mutable dead : bool;
  mutable in_service : bool;  (** a job slice (not a stall) is executing *)
  mutable in_stall : bool;  (** a blackout window is being served *)
  mutable stall_pending_ns : int;
  mutable stalled_ns : int;
  mutable lost : int;
  mutable quanta_total : int;  (** monotone progress counter, never reset *)
  (* The slice or blackout in flight, ended by [transition] — at most
     one at a time, since only an idle worker starts either. *)
  mutable slice_job : Job.t;
  mutable slice_ns : int;
  mutable slice_jitter_ns : int;
  mutable slice_finishes : bool;
  mutable stall_ns : int;
  mutable transition : Sim.action;
}

let wid t = t.wid
let sink t = t.sink

(* The controller's actuator.  Takes effect from the next slice: the
   quantum of the slice currently executing was already committed to the
   event queue, exactly like a real core that re-reads its quantum
   register at the next preemption point. *)
let set_quantum t ?class_idx ~quantum_ns () =
  if quantum_ns <= 0 then invalid_arg "Worker.set_quantum: quantum must be positive";
  match t.policy with
  | Fcfs | Las _ -> ()
  | Ps { quantum_ns = base; per_class_quantum } -> (
      match class_idx with
      | None -> t.policy <- Ps { quantum_ns; per_class_quantum }
      | Some c ->
          if c < 0 then invalid_arg "Worker.set_quantum: negative class index";
          (* A fresh array: the policy's array is shared with every
             worker built from the same spec, and with the spec itself. *)
          let arr =
            match per_class_quantum with
            | Some arr when c < Array.length arr -> Array.copy arr
            | Some arr ->
                let bigger = Array.make (c + 1) base in
                Array.blit arr 0 bigger 0 (Array.length arr);
                bigger
            | None -> Array.make (c + 1) base
          in
          arr.(c) <- quantum_ns;
          t.policy <- Ps { quantum_ns = base; per_class_quantum = Some arr })

let quantum_for_class t ~class_idx =
  match t.policy with
  | Fcfs -> None
  | Las { base_quantum_ns; _ } -> Some base_quantum_ns
  | Ps { quantum_ns; per_class_quantum } -> (
      match per_class_quantum with
      | Some arr when class_idx >= 0 && class_idx < Array.length arr ->
          Some arr.(class_idx)
      | _ -> Some quantum_ns)

let[@inline] jitter t =
  if t.ov.quantum_jitter_ns > 0 then Prng.int t.rng (t.ov.quantum_jitter_ns + 1) else 0

(* The nominal (policy) quantum, before probe-timing jitter; -1 under
   FCFS (run to completion). *)
let base_quantum_for t (job : Job.t) =
  match t.policy with
  | Fcfs -> -1
  | Ps { quantum_ns; per_class_quantum } -> (
      match per_class_quantum with
      | Some arr when job.class_idx < Array.length arr -> arr.(job.class_idx)
      | _ -> quantum_ns)
  | Las { base_quantum_ns; max_quantum_ns } ->
      (* Doubling quanta with attained service: a fresh job preempts
         quickly; a long-running one earns longer slices. *)
      let attained = Job.attained_ns job in
      Int.max base_quantum_ns (Int.min max_quantum_ns attained)

(* LAS serves the job with the least attained service; PS/FCFS serve the
   queue head.  [Job.none] when the queue is empty. *)
let pop_next t =
  if Deque.is_empty t.queue then Job.none
  else begin
    decr t.queued;
    match t.policy with
    | Ps _ | Fcfs -> Deque.pop_front t.queue
    | Las _ ->
        let best_attained = ref max_int in
        Deque.iter
          (fun (j : Job.t) ->
            let a = Job.attained_ns j in
            if a < !best_attained then best_attained := a)
          t.queue;
        (* Find the first job achieving the minimum, preserving FIFO
           order among equals. *)
        let n = Deque.length t.queue in
        let rec find i =
          if i >= n then 0
          else if Job.attained_ns (Deque.get t.queue i) = !best_attained then i
          else find (i + 1)
        in
        (* Rotate the winner to the front, then pop. *)
        let skipped = ref [] in
        for _ = 1 to find 0 do
          skipped := Deque.pop_front t.queue :: !skipped
        done;
        let winner = Deque.pop_front t.queue in
        List.iter (Deque.push_front t.queue) !skipped;
        winner
  end

(* The in-flight slice plus the cost of the switch that ends it. *)
let slice_busy_ns t =
  t.slice_ns + if t.slice_finishes then t.ov.finish_ns else t.ov.yield_ns

let rec run_next t =
  if t.dead then t.busy <- false  (* queue kept for [drain] / [steal] *)
  else if t.stall_pending_ns > 0 then begin
    (* Serve the accumulated blackout before touching the run queue.
       The slice in flight when the stall was injected has already run
       to its quantum boundary — the model charges stalls between
       quanta, a deliberate simplification (a real GC pause would also
       stretch the current slice). *)
    let d = t.stall_pending_ns in
    t.stall_pending_ns <- 0;
    t.busy <- true;
    t.in_stall <- true;
    t.stall_ns <- d;
    if t.spans_on then
      Span.record t.sink ~req_id:(-1) ~phase:Span.Stall ~start_ns:(Sim.now t.sim) ~dur_ns:d
        ~arg:t.wid;
    Sim.post t.sim ~delay:d t.transition
  end
  else
    let job = pop_next t in
    if job == Job.none then begin
      t.busy <- false;
      t.on_idle ()
    end
    else begin
      t.busy <- true;
      t.in_service <- true;
      (* Draw jitter separately from the base quantum so the overshoot
         past the nominal quantum is observable (same single PRNG draw
         per slice as before). *)
      let jit, slice, finishes =
        let base = base_quantum_for t job in
        if base < 0 then (0, job.remaining_ns, true)
        else
          let jit = jitter t in
          let q = base + jit in
          if job.remaining_ns <= q then (jit, job.remaining_ns, true) else (jit, q, false)
      in
      t.slice_job <- job;
      t.slice_ns <- slice;
      t.slice_jitter_ns <- jit;
      t.slice_finishes <- finishes;
      Sim.post t.sim ~delay:(slice_busy_ns t) t.transition
    end

and end_stall t =
  t.in_stall <- false;
  t.stalled_ns <- t.stalled_ns + t.stall_ns;
  run_next t

and end_slice t =
  let job = t.slice_job in
  t.in_service <- false;
  if t.dead then begin
    (* The core died mid-slice: the job's state is gone. *)
    t.busy <- false;
    t.current_quanta <- t.current_quanta - job.serviced_quanta;
    t.assigned <- t.assigned - 1;
    t.lost <- t.lost + 1;
    t.on_lost job
  end
  else begin
    let busy_for = slice_busy_ns t and jit = t.slice_jitter_ns in
    let finishes = t.slice_finishes in
    t.busy_ns <- t.busy_ns + busy_for;
    job.remaining_ns <- job.remaining_ns - t.slice_ns;
    job.serviced_quanta <- job.serviced_quanta + 1;
    t.current_quanta <- t.current_quanta + 1;
    t.quanta_total <- t.quanta_total + 1;
    Counters.incr t.c_quanta;
    let now = Sim.now t.sim in
    if t.spans_on then
      Span.record t.sink ~req_id:job.id ~phase:Span.Quantum ~start_ns:(now - busy_for)
        ~dur_ns:busy_for
        ~arg:(if finishes then 1 else 0);
    if finishes then begin
      t.current_quanta <- t.current_quanta - job.serviced_quanta;
      t.finished <- t.finished + 1;
      Counters.incr t.c_completions;
      if t.spans_on then
        Span.record t.sink ~req_id:job.id ~phase:Span.Reply_flush ~start_ns:now ~dur_ns:0
          ~arg:job.class_idx;
      t.on_finish job
    end
    else begin
      Counters.incr t.c_yields;
      if jit > 0 then Counters.observe t.d_overshoot jit;
      Deque.push_back t.queue job;
      incr t.queued
    end;
    run_next t
  end

let create sim ~wid ~rng ~policy ~overheads ?(obs = Tq_obs.Obs.disabled ())
    ?(queued = ref 0) ?(on_idle = ignore) ?(on_lost = ignore) ~on_finish () =
  let reg = obs.Tq_obs.Obs.counters in
  let t =
    {
      sim;
      wid;
      rng;
      policy;
      ov = overheads;
      queue = Deque.create ();
      queued;
      on_finish;
      on_idle;
      on_lost;
      spans_on = Span.enabled obs.Tq_obs.Obs.spans;
      sink = Span.register obs.Tq_obs.Obs.spans (Span.Worker wid);
      c_quanta = Counters.counter reg "worker.quanta";
      c_yields = Counters.counter reg "worker.yields";
      c_completions = Counters.counter reg "worker.completions";
      d_overshoot = Counters.dist reg "worker.overshoot_ns";
      busy = false;
      assigned = 0;
      finished = 0;
      current_quanta = 0;
      busy_ns = 0;
      dead = false;
      in_service = false;
      in_stall = false;
      stall_pending_ns = 0;
      stalled_ns = 0;
      lost = 0;
      quanta_total = 0;
      slice_job = Job.none;
      slice_ns = 0;
      slice_jitter_ns = 0;
      slice_finishes = false;
      stall_ns = 0;
      transition = Sim.no_action;
    }
  in
  t.transition <- Sim.action sim (fun () -> if t.in_stall then end_stall t else end_slice t);
  t

let enqueue t job =
  Deque.push_back t.queue job;
  incr t.queued;
  if not t.busy then run_next t

let inject_stall t ~duration_ns =
  if duration_ns <= 0 then invalid_arg "Worker.inject_stall: duration must be positive";
  if not t.dead then begin
    t.stall_pending_ns <- t.stall_pending_ns + duration_ns;
    if not t.busy then run_next t
  end

let kill t =
  if not t.dead then begin
    t.dead <- true;
    t.stall_pending_ns <- 0;
    if t.spans_on then
      Span.record t.sink ~req_id:(-1) ~phase:Span.Kill ~start_ns:(Sim.now t.sim) ~dur_ns:0
        ~arg:t.wid;
    (* If a slice is in flight, its closure sees [dead] and loses the
       job; if the core is mid-stall or idle, nothing more runs. *)
    if not t.busy then run_next t
  end

let drain t =
  let rec loop acc =
    if Deque.is_empty t.queue then List.rev acc
    else begin
      t.assigned <- t.assigned - 1;
      decr t.queued;
      loop (Deque.pop_front t.queue :: acc)
    end
  in
  loop []

let alive t = not t.dead
let in_service t = t.in_service

(* Whether the core would answer a dispatcher heartbeat right now.
   Forced multitasking guarantees the worker loop regains control every
   quantum, so a healthy core always replies promptly; only a blackout
   (stall) or death makes it miss pings.  A long legitimate slice does
   NOT make the core unresponsive. *)
let responsive t = not t.dead && not t.in_stall
let progress t = t.quanta_total
let loaded t = t.assigned - t.finished > 0
let stalled_ns t = t.stalled_ns
let lost_jobs t = t.lost

let[@inline] unfinished t = t.assigned - t.finished
let current_quanta t = t.current_quanta

(* One pass with no allocation, reading the counters in place: a
   dispatch is one call here rather than one or two per worker.  -1 when
   no entry of [alive] is set. *)
let jsq_msq ~alive workers =
  let best = ref (-1) and best_load = ref max_int and best_q = ref 0 in
  for i = 0 to Array.length workers - 1 do
    let w = workers.(i) in
    let load = unfinished w in
    if alive.(i) && (load < !best_load || (load = !best_load && w.current_quanta > !best_q))
    then begin
      best := i;
      best_load := load;
      best_q := w.current_quanta
    end
  done;
  !best

(* The steal scans, one call each for the same reason. *)
let longest_queue ~alive workers =
  let best = ref (-1) and best_len = ref 0 in
  for i = 0 to Array.length workers - 1 do
    let len = Deque.length workers.(i).queue in
    if alive.(i) && len > !best_len then begin
      best := i;
      best_len := len
    end
  done;
  !best

let first_idle ~alive workers =
  let n = Array.length workers in
  let i = ref 0 in
  while !i < n && (workers.(!i).busy || workers.(!i).dead || not alive.(!i)) do
    incr i
  done;
  if !i < n then !i else -1

let finished_jobs t = t.finished
let busy_ns t = t.busy_ns
let queue_length t = Deque.length t.queue
let queued_violations workers =
  if Array.length workers = 0 then []
  else
    let queued = !(workers.(0).queued) in
    let sum = Array.fold_left (fun acc w -> acc + Deque.length w.queue) 0 workers in
    if queued = sum then []
    else [ Printf.sprintf "queued-job count %d, run queues hold %d" queued sum ]

let note_assigned t = t.assigned <- t.assigned + 1
let note_unassigned t = t.assigned <- t.assigned - 1
let is_busy t = t.busy

let steal t =
  if Deque.is_empty t.queue then Job.none
  else begin
    (* The job leaves this core: its load transfers to the thief, which
       calls [note_assigned] on itself. *)
    t.assigned <- t.assigned - 1;
    decr t.queued;
    Deque.pop_back t.queue
  end
