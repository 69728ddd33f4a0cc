module Span = Tq_obs.Span
module Counters = Tq_obs.Counters

type stats = { completed : int; yields : int; per_worker_finished : int array }

type worker_handle = {
  inject : Task_worker.task Spsc_ring.t;  (** dispatcher -> worker *)
  assigned : int Atomic.t;  (** written by dispatcher *)
  finished : int Atomic.t;  (** written by worker *)
  yields : int Atomic.t;
  quanta : int Atomic.t;  (** serviced quanta of the worker's current tasks (MSQ) *)
  beats : int Atomic.t;  (** liveness heartbeat: bumped once per loop pass *)
  stall_until_ns : int Atomic.t;  (** fault hook: busy-occupy until this stamp *)
  killed : bool Atomic.t;  (** fault hook: domain exits at next loop pass *)
  dead : bool Atomic.t;  (** dispatcher verdict: excluded from JSQ/in-flight *)
  park : Park.t;  (** where the idle worker sleeps; a push, stop, kill or stall wakes it *)
}

type t = {
  handles : worker_handle array;
  loops : (unit -> unit) array;  (** each worker's service loop, built by [create] *)
  mutable domains : unit Domain.t array;  (** empty until [start] *)
  stop : bool Atomic.t;
  base_quantum : int Atomic.t;  (** live quantum, read by workers per slice *)
  class_quanta : int Atomic.t array;  (** per-class overrides; <= 0 = inherit *)
  mutable live : bool;  (** false after shutdown; guarded by the producer thread *)
  next_tag : int Atomic.t;  (** fallback task-id source, shared by all producers *)
  drained : Park.t;  (** where [drain] sleeps; every finish wakes it *)
}

(* Builds one worker's whole state on the calling domain — its sink,
   counters and fiber scheduler — and returns the loop its domain will
   run, so [start] allocates nothing beyond the spawn itself. *)
let worker_loop handle ~wid ~quantum_ns ~base_quantum ~class_quanta
    ~stop ~drained ~on_finish ~spans ~reg ~track_probes ~stall_threshold_ns ~gc_pause_ns =
  let clock = Clock.wall () in
  let obs =
    match reg with
    | Some r -> Tq_obs.Obs.of_counters r
    | None -> Tq_obs.Obs.disabled ()
  in
  let sink = Span.register spans (Span.Worker wid) in
  let spans_on = Span.enabled spans in
  let creg = obs.Tq_obs.Obs.counters in
  let c_stalls = Counters.counter creg "runtime.stalls" in
  let c_stall_gc = Counters.counter creg "runtime.stall_gc" in
  let c_stall_other = Counters.counter creg "runtime.stall_other" in
  let c_stall_unknown = Counters.counter creg "runtime.stall_unknown" in
  let d_stall_gap = Counters.dist creg "runtime.stall_gap_ns" in
  (* Wall-clock-gap stall detector: consecutive busy slices separated by
     much more than a quantum mean the domain lost the CPU between them
     (GC pause, OS preemption).  [last_end] resets on idle polls so time
     spent legitimately waiting for work never counts.

     Attribution: [gc_pause_ns] (when wired, from Gc_events) reads this
     domain's cumulative GC pause clock; if GC pauses grew by at least
     half the gap since the previous quantum end, the runtime ate the
     core — otherwise the OS (or an antagonist) did.  The GC clock lags
     the live domain by the consumer's poll interval, so a pause right
     at the gap's edge can land in [stall_other]; the counters are a
     classifier, not an audit. *)
  let last_end = ref (-1) in
  let gc_at_last_end = ref 0 in
  let on_quantum ~task_id ~start_ns ~end_ns ~finished =
    if !last_end >= 0 && start_ns - !last_end > stall_threshold_ns then begin
      let gap = start_ns - !last_end in
      Counters.incr c_stalls;
      Counters.observe d_stall_gap gap;
      (match gc_pause_ns with
      | None -> Counters.incr c_stall_unknown
      | Some f ->
          let gc_delta = f () - !gc_at_last_end in
          if 2 * gc_delta >= gap then Counters.incr c_stall_gc
          else Counters.incr c_stall_other);
      if spans_on then
        Span.record sink ~req_id:(-1) ~phase:Span.Stall ~start_ns:!last_end
          ~dur_ns:gap ~arg:wid
    end;
    if spans_on then
      Span.record sink ~req_id:task_id ~phase:Span.Quantum ~start_ns
        ~dur_ns:(end_ns - start_ns)
        ~arg:(if finished then 1 else 0);
    last_end := end_ns;
    match gc_pause_ns with
    | None -> ()
    | Some f -> gc_at_last_end := f ()
  in
  (* Live quantum resolution, one slice at a time: a per-class override
     when the controller set one, the shared base otherwise.  Two atomic
     loads per slice — the price of retuning a running pool without
     stopping it. *)
  let class_quantum ~class_idx =
    let q =
      if class_idx >= 0 && class_idx < Array.length class_quanta then
        Atomic.get class_quanta.(class_idx)
      else 0
    in
    if q > 0 then q else Atomic.get base_quantum
  in
  (* The pickup is an instant on the trace: when the request landed on
     the core, stamped once by the worker and shared with its residency. *)
  let on_pickup =
    if spans_on then
      Some
        (fun ~task_id ~now_ns ->
          Span.record sink ~req_id:task_id ~phase:Span.Ring_hop ~start_ns:now_ns
            ~dur_ns:0 ~arg:wid)
    else None
  in
  let worker =
    Task_worker.create ~obs ~wid ~track_probes ?on_pickup ~on_quantum ~class_quantum
      ~stalls:c_stalls ?gc_pause_ns ~clock ~quantum_ns
      ~on_finish:(fun residency ->
        on_finish ~wid residency;
        Atomic.incr handle.finished;
        Park.wake drained)
      ()
  in
  (* Admission = handing a task to the fiber scheduler, which
     multitasks everything admitted (per-core processor sharing). *)
  let rec drain_inject () =
    match Spsc_ring.try_pop handle.inject with
    | None -> ()
    | Some task ->
        Task_worker.submit worker task;
        drain_inject ()
  in
  (* Persistent service loop: exits only when the stop flag is up AND
     both the ring and the local run queue are empty — admitted work is
     never abandoned (the zero-loss drain guarantee).  With nothing to
     run it parks until a push, [stop], a kill or a stall wakes it
     ({!Park}), so an idle worker neither spins nor beats.  Fault hooks
     break the ideal on purpose: [killed] makes the domain exit
     immediately, abandoning whatever it holds (the dispatcher's
     heartbeat monitor is responsible for noticing and re-dispatching);
     [stall_until_ns] busy-occupies the core without serving — a CPU
     antagonist — during which the heartbeat stops, exactly like a real
     stuck worker. *)
  let woken () =
    Spsc_ring.length handle.inject > 0
    || Atomic.get stop || Atomic.get handle.killed
    || Atomic.get handle.stall_until_ns > 0
  in
  let rec loop () =
    Atomic.incr handle.beats;
    if Atomic.get handle.killed then ()
    else begin
      let su = Atomic.get handle.stall_until_ns in
      if su > 0 then begin
        while Clock.now_ns clock < Atomic.get handle.stall_until_ns do
          ()
        done;
        Atomic.set handle.stall_until_ns 0;
        last_end := -1
      end;
      drain_inject ();
      let ran = Task_worker.run_slice worker in
      Atomic.set handle.quanta (Task_worker.current_quanta worker);
      Atomic.set handle.yields (Task_worker.total_yields worker);
      if ran then loop ()
      else begin
        last_end := -1;
        if Atomic.get stop && Spsc_ring.length handle.inject = 0 then ()
        else begin
          Park.park handle.park woken;
          loop ()
        end
      end
    end
  in
  loop

let create ?(workers = 4) ?(quantum_ns = 100_000) ?(ring_capacity = 256)
    ?(classes = 0) ?(spans = Span.null) ?worker_counters ?stall_threshold_ns
    ?gc_pause_ns ?(on_finish = fun ~wid:_ _ -> ()) () =
  if workers < 1 then invalid_arg "Parallel.create: need at least one worker";
  (match worker_counters with
  | Some regs when Array.length regs <> workers ->
      invalid_arg "Parallel.create: worker_counters length must equal workers"
  | _ -> ());
  let stall_threshold_ns =
    match stall_threshold_ns with Some ns -> ns | None -> 10 * quantum_ns
  in
  if stall_threshold_ns <= 0 then
    invalid_arg "Parallel.create: stall threshold must be positive";
  let track_probes = worker_counters <> None in
  let stop = Atomic.make false in
  let base_quantum = Atomic.make quantum_ns in
  let class_quanta = Array.init (max 0 classes) (fun _ -> Atomic.make 0) in
  let handles =
    Array.init workers (fun _ ->
        {
          inject = Spsc_ring.create ~capacity:ring_capacity;
          assigned = Atomic.make 0;
          finished = Atomic.make 0;
          yields = Atomic.make 0;
          quanta = Atomic.make 0;
          beats = Atomic.make 0;
          stall_until_ns = Atomic.make 0;
          killed = Atomic.make false;
          dead = Atomic.make false;
          park = Park.create ();
        })
  in
  let drained = Park.create () in
  let loops =
    Array.mapi
      (fun wid handle ->
        let reg = Option.map (fun regs -> regs.(wid)) worker_counters in
        worker_loop handle ~wid ~quantum_ns ~base_quantum ~class_quanta ~stop
          ~drained ~on_finish ~spans ~reg ~track_probes ~stall_threshold_ns ~gc_pause_ns)
      handles
  in
  { handles; loops; domains = [||]; stop; base_quantum; class_quanta; live = true;
    next_tag = Atomic.make 0; drained }

let start t =
  if not t.live then invalid_arg "Parallel.start: pool is shut down";
  if Array.length t.domains > 0 then invalid_arg "Parallel.start: already started";
  t.domains <- Array.map Domain.spawn t.loops

let workers t = Array.length t.handles
let unfinished h = Atomic.get h.assigned - Atomic.get h.finished
let worker_alive t ~worker = not (Atomic.get t.handles.(worker).dead)
let alive_workers t =
  Array.fold_left (fun acc h -> if Atomic.get h.dead then acc else acc + 1) 0 t.handles

(* JSQ-MSQ over the living, as [Worker.jsq_msq] picks in the DES: a
   worker marked dead keeps whatever counters it froze with, so it must
   never win again.  An index loop, so a dispatch allocates nothing. *)
let pick t =
  let best = ref (-1) and best_load = ref max_int and best_q = ref 0 in
  for i = 0 to Array.length t.handles - 1 do
    let h = t.handles.(i) in
    if not (Atomic.get h.dead) then begin
      let load = unfinished h and q = Atomic.get h.quanta in
      if load < !best_load || (load = !best_load && q > !best_q) then begin
        best := i;
        best_load := load;
        best_q := q
      end
    end
  done;
  if !best < 0 then invalid_arg "Parallel.pick: every worker is dead";
  !best

let submit_to t ?tag ?(class_idx = 0) ~worker job =
  if not t.live then invalid_arg "Parallel.submit_to: pool is shut down";
  if worker < 0 || worker >= Array.length t.handles then
    invalid_arg "Parallel.submit_to: no such worker";
  let handle = t.handles.(worker) in
  let task_id =
    match tag with
    | Some g -> g
    | None -> Atomic.fetch_and_add t.next_tag 1 + 1
  in
  if Spsc_ring.try_push handle.inject { Task_worker.task_id; class_idx; work = job }
  then begin
    Atomic.incr handle.assigned;
    Park.wake handle.park;
    true
  end
  else false

let submit t ?tag ?class_idx job = submit_to t ?tag ?class_idx ~worker:(pick t) job

let in_flight t =
  Array.fold_left
    (fun acc h -> if Atomic.get h.dead then acc else acc + unfinished h)
    0 t.handles

let worker_in_flight t ~worker = unfinished t.handles.(worker)
let ring_depth t ~worker = Spsc_ring.length t.handles.(worker).inject
let parked t ~worker = Park.sleeping t.handles.(worker).park

(* {2 Live actuation and fault hooks} *)

let set_quantum t ?class_idx ~quantum_ns () =
  if quantum_ns <= 0 then invalid_arg "Parallel.set_quantum: need a positive quantum";
  match class_idx with
  | Some i ->
      if i >= 0 && i < Array.length t.class_quanta then
        Atomic.set t.class_quanta.(i) quantum_ns
  | None ->
      Atomic.set t.base_quantum quantum_ns;
      Array.iter (fun a -> Atomic.set a 0) t.class_quanta

let quantum_ns t ?class_idx () =
  match class_idx with
  | Some i when i >= 0 && i < Array.length t.class_quanta ->
      let q = Atomic.get t.class_quanta.(i) in
      if q > 0 then q else Atomic.get t.base_quantum
  | _ -> Atomic.get t.base_quantum

let beats t ~worker = Atomic.get t.handles.(worker).beats

let stall_worker t ~worker ~duration_ns =
  if duration_ns > 0 then begin
    let h = t.handles.(worker) in
    Atomic.set h.stall_until_ns (Tq_util.Time_unit.now_ns () + duration_ns);
    Park.wake h.park
  end

let kill_worker t ~worker =
  let h = t.handles.(worker) in
  Atomic.set h.killed true;
  Park.wake h.park

let mark_dead t ~worker =
  let h = t.handles.(worker) in
  if Atomic.get h.dead then 0
  else begin
    Atomic.set h.dead true;
    Park.wake t.drained;
    unfinished h
  end

let revive t ~worker = Atomic.set t.handles.(worker).dead false

let stats t =
  {
    completed = Array.fold_left (fun acc h -> acc + Atomic.get h.finished) 0 t.handles;
    yields = Array.fold_left (fun acc h -> acc + Atomic.get h.yields) 0 t.handles;
    per_worker_finished = Array.map (fun h -> Atomic.get h.finished) t.handles;
  }

let drain t =
  let idle () = in_flight t = 0 in
  while not (idle ()) do
    Park.park t.drained idle
  done

let shutdown t =
  if t.live then begin
    t.live <- false;
    Atomic.set t.stop true;
    Array.iter (fun h -> Park.wake h.park) t.handles;
    Array.iter Domain.join t.domains
  end;
  stats t
