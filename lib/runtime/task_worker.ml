module Deque = Tq_util.Ring_deque
module Counters = Tq_obs.Counters

type task = {
  task_id : int;
  class_idx : int;
  work : wid:int -> unit;
}

type running = {
  task : task;
  fiber : unit Fiber.t;
  mutable quanta : int;
}

type t = {
  ctx : Probe_api.t;
  clock : Clock.t;
  wid : int;
  queue : running Deque.t;
  on_finish : task -> unit;
  on_quantum :
    (task_id:int -> start_ns:int -> end_ns:int -> finished:bool -> unit) option;
  class_quantum : (class_idx:int -> int) option;
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
    ?on_quantum ?class_quantum ~clock ~quantum_ns ~on_finish () =
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
    on_quantum;
    class_quantum;
    c_quanta = Counters.counter reg "runtime.quanta";
    c_yields = Counters.counter reg "runtime.yields";
    c_completions = Counters.counter reg "runtime.completions";
    d_quantum_len = Counters.dist reg "runtime.quantum_len_ns";
    d_overshoot = Counters.dist reg "runtime.overshoot_ns";
    assigned = 0;
    finished = 0;
    current_quanta = 0;
  }

let submit t task =
  t.assigned <- t.assigned + 1;
  Deque.push_back t.queue
    {
      task;
      fiber = Fiber.create (fun () -> task.work ~wid:t.wid);
      quanta = 0;
    }

let run_slice t =
  if Deque.is_empty t.queue then false
  else begin
    let running = Deque.pop_front t.queue in
    (match t.class_quantum with
    | None -> ()
    | Some f ->
        Probe_api.set_quantum_ns t.ctx (f ~class_idx:running.task.class_idx));
    Probe_api.install t.ctx;
    Probe_api.start_quantum t.ctx;
    let start_ns = Clock.now_ns t.clock in
    let status = Fun.protect ~finally:Probe_api.uninstall (fun () -> Fiber.resume running.fiber) in
    running.quanta <- running.quanta + 1;
    t.current_quanta <- t.current_quanta + 1;
    Counters.incr t.c_quanta;
    let end_ns = Clock.now_ns t.clock in
    let finished = match status with Fiber.Done () -> true | Fiber.Yielded -> false in
    let ran_ns = end_ns - start_ns in
    Counters.observe t.d_quantum_len ran_ns;
    (* Overshoot only makes sense for forced yields: a task that
       finished early legitimately ran under the quantum. *)
    if not finished then
      Counters.observe t.d_overshoot
        (Int.max 0 (ran_ns - Probe_api.quantum_ns t.ctx));
    (match status with
    | Fiber.Yielded ->
        Counters.incr t.c_yields;
        Deque.push_back t.queue running
    | Fiber.Done () ->
        t.current_quanta <- t.current_quanta - running.quanta;
        t.finished <- t.finished + 1;
        Counters.incr t.c_completions;
        t.on_finish running.task);
    (match t.on_quantum with
    | None -> ()
    | Some f -> f ~task_id:running.task.task_id ~start_ns ~end_ns ~finished);
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
