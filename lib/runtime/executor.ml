module Trace = Tq_obs.Trace
module Event = Tq_obs.Event
module Counters = Tq_obs.Counters

type t = {
  mutable workers : Task_worker.t array;
  trace : Trace.t;
  c_dispatches : Counters.counter;
  mutable next_task_id : int;
  mutable completed : int;
}

let create ?(workers = 4) ?(quantum_ns = 2_000) ?(wall_clock = false)
    ?(obs = Tq_obs.Obs.disabled ()) () =
  if workers < 1 then invalid_arg "Executor.create: need at least one worker";
  let t =
    {
      workers = [||];
      trace = obs.Tq_obs.Obs.trace;
      c_dispatches = Counters.counter obs.Tq_obs.Obs.counters "runtime.dispatches";
      next_task_id = 0;
      completed = 0;
    }
  in
  let make_worker wid =
    let clock = if wall_clock then Clock.wall () else Clock.virtual_ () in
    Task_worker.create ~obs ~wid ~clock ~quantum_ns
      ~on_finish:(fun _ -> t.completed <- t.completed + 1)
      ()
  in
  t.workers <- Array.init workers make_worker;
  t

(* JSQ with MSQ tie-breaking, reading worker counters like the paper's
   dispatcher reads the shared cache line. *)
let choose_worker t =
  let best = ref 0 in
  Array.iteri
    (fun i w ->
      let load = Task_worker.unfinished w in
      let best_load = Task_worker.unfinished t.workers.(!best) in
      if
        load < best_load
        || (load = best_load
           && Task_worker.current_quanta w > Task_worker.current_quanta t.workers.(!best))
      then best := i)
    t.workers;
  !best

let submit t work =
  t.next_task_id <- t.next_task_id + 1;
  let widx = choose_worker t in
  let worker = t.workers.(widx) in
  Counters.incr t.c_dispatches;
  if Trace.enabled t.trace then
    Trace.record t.trace
      ~ts_ns:(Clock.now_ns (Task_worker.clock worker))
      ~lane:Event.Global
      (Event.Dispatch
         {
           job_id = t.next_task_id;
           worker = widx;
           policy = "jsq-msq";
           queue_len = Task_worker.queue_length worker;
         });
  Task_worker.submit worker
    {
      Task_worker.task_id = t.next_task_id;
      class_idx = 0;
      work = (fun ~wid:_ -> work ());
    }

let run t =
  let any = ref true in
  while !any do
    any := false;
    Array.iter (fun w -> if Task_worker.run_slice w then any := true) t.workers
  done

let completed t = t.completed
let total_yields t = Array.fold_left (fun acc w -> acc + Task_worker.total_yields w) 0 t.workers
let worker_count t = Array.length t.workers
let worker_finished t = Array.map Task_worker.finished_count t.workers
