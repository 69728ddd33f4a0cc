module Deque = Tq_util.Ring_deque
module Counters = Tq_obs.Counters

type task = {
  task_id : int;
  class_idx : int;
  work : wid:int -> unit;
}

type residency = {
  task : task;
  fiber : unit Fiber.t;
  pickup_ns : int;
  mutable first_ns : int;
  mutable run_ns : int;
  mutable last_end_ns : int;
  mutable quanta : int;
  mutable stalls : int;  (* the stall count at pickup, its growth once finished *)
  mutable gc_pause_ns : int;  (* likewise for the GC pause clock *)
}

type t = {
  ctx : Probe_api.t;
  clock : Clock.t;
  wid : int;
  queue : residency Deque.t;
  on_finish : residency -> unit;
  on_pickup : (task_id:int -> now_ns:int -> unit) option;
  on_quantum :
    (task_id:int -> start_ns:int -> end_ns:int -> finished:bool -> unit) option;
  class_quantum : (class_idx:int -> int) option;
  stall_counter : Counters.counter option;
  gc_pause_clock : (unit -> int) option;
  c_quanta : Counters.counter;
  c_yields : Counters.counter;
  c_completions : Counters.counter;
  d_quantum_len : Counters.dist;
  d_overshoot : Counters.dist;
  mutable assigned : int;
  mutable finished : int;
  mutable current_quanta : int;
}

let create ?(obs = Tq_obs.Obs.disabled ()) ?(wid = 0) ?(track_probes = false)
    ?on_pickup ?on_quantum ?class_quantum ?stalls ?gc_pause_ns ~clock ~quantum_ns
    ~on_finish () =
  let reg = obs.Tq_obs.Obs.counters in
  let ctx = Probe_api.create ~clock ~quantum_ns in
  if track_probes then
    Probe_api.set_cadence ctx (Some (Counters.dist reg "runtime.probe_gap_ns"));
  {
    ctx;
    clock;
    wid;
    queue = Deque.create ();
    on_finish;
    on_pickup;
    on_quantum;
    class_quantum;
    stall_counter = stalls;
    gc_pause_clock = gc_pause_ns;
    c_quanta = Counters.counter reg "runtime.quanta";
    c_yields = Counters.counter reg "runtime.yields";
    c_completions = Counters.counter reg "runtime.completions";
    d_quantum_len = Counters.dist reg "runtime.quantum_len_ns";
    d_overshoot = Counters.dist reg "runtime.overshoot_ns";
    assigned = 0;
    finished = 0;
    current_quanta = 0;
  }

let stall_count t = match t.stall_counter with Some c -> Counters.count c | None -> 0
let gc_pause_now t = match t.gc_pause_clock with Some f -> f () | None -> 0

let submit t task =
  let now_ns = Clock.now_ns t.clock in
  t.assigned <- t.assigned + 1;
  (match t.on_pickup with None -> () | Some f -> f ~task_id:task.task_id ~now_ns);
  Deque.push_back t.queue
    {
      task;
      fiber = Fiber.create (fun () -> task.work ~wid:t.wid);
      pickup_ns = now_ns;
      first_ns = -1;
      run_ns = 0;
      last_end_ns = -1;
      quanta = 0;
      stalls = stall_count t;
      gc_pause_ns = gc_pause_now t;
    }

let run_slice t =
  if Deque.is_empty t.queue then false
  else begin
    let r = Deque.pop_front t.queue in
    (match t.class_quantum with
    | None -> ()
    | Some f -> Probe_api.set_quantum_ns t.ctx (f ~class_idx:r.task.class_idx));
    Probe_api.install t.ctx;
    Probe_api.start_quantum t.ctx;
    let start_ns = Clock.now_ns t.clock in
    let status = Fun.protect ~finally:Probe_api.uninstall (fun () -> Fiber.resume r.fiber) in
    r.quanta <- r.quanta + 1;
    t.current_quanta <- t.current_quanta + 1;
    Counters.incr t.c_quanta;
    let end_ns = Clock.now_ns t.clock in
    let finished = match status with Fiber.Done () -> true | Fiber.Yielded -> false in
    let ran_ns = end_ns - start_ns in
    if r.first_ns < 0 then r.first_ns <- start_ns;
    r.run_ns <- r.run_ns + ran_ns;
    r.last_end_ns <- end_ns;
    Counters.observe t.d_quantum_len ran_ns;
    (* Overshoot only makes sense for forced yields: a task that
       finished early legitimately ran under the quantum. *)
    if not finished then
      Counters.observe t.d_overshoot
        (Int.max 0 (ran_ns - Probe_api.quantum_ns t.ctx));
    (* The hook runs before [on_finish], so a stall it counts for this
       slice belongs to the finishing task's residency. *)
    (match t.on_quantum with
    | None -> ()
    | Some f -> f ~task_id:r.task.task_id ~start_ns ~end_ns ~finished);
    (match status with
    | Fiber.Yielded ->
        Counters.incr t.c_yields;
        Deque.push_back t.queue r
    | Fiber.Done () ->
        t.current_quanta <- t.current_quanta - r.quanta;
        t.finished <- t.finished + 1;
        Counters.incr t.c_completions;
        r.stalls <- stall_count t - r.stalls;
        r.gc_pause_ns <- gc_pause_now t - r.gc_pause_ns;
        t.on_finish r);
    true
  end

let run_until_idle t =
  while run_slice t do
    ()
  done

let queue_length t = Deque.length t.queue
let unfinished t = t.assigned - t.finished
let finished_count t = t.finished
let current_quanta t = t.current_quanta
let total_yields t = Probe_api.yields_taken t.ctx
let clock t = t.clock
