module Queue = Tq_util.Event_queue

type event = { action : unit -> unit; mutable state : [ `Pending | `Cancelled | `Fired ] }

(* A queue payload is an action id [a >= 0] or a one-shot slot [s],
   stored as [lnot s < 0].  One-shot slots hold their event until it
   pops; freed slots go on the [free] stack. *)
type t = {
  queue : Queue.t;
  mutable now : int;
  mutable processed : int;
  mutable actions : (unit -> unit) array;
  mutable n_actions : int;
  mutable slots : event array;
  mutable free : int array;
  mutable n_free : int;
  mutable n_slots : int;
}

type action = int

let no_action = -1

let spent = { action = ignore; state = `Fired }

let create () =
  {
    queue = Queue.create ();
    now = 0;
    processed = 0;
    actions = [||];
    n_actions = 0;
    slots = [||];
    free = [||];
    n_free = 0;
    n_slots = 0;
  }

let now t = t.now

let action t f =
  let n = t.n_actions in
  if n = Array.length t.actions then begin
    let actions = Array.make (max 32 (2 * n)) f in
    Array.blit t.actions 0 actions 0 n;
    t.actions <- actions
  end;
  t.actions.(n) <- f;
  t.n_actions <- n + 1;
  n

let post t ~delay a =
  if delay < 0 then invalid_arg "Sim.post: negative delay";
  if a < 0 || a >= t.n_actions then invalid_arg "Sim.post: unregistered action";
  Queue.push t.queue ~key:(t.now + delay) a

let take_slot t ev =
  if t.n_free > 0 then begin
    t.n_free <- t.n_free - 1;
    let s = t.free.(t.n_free) in
    t.slots.(s) <- ev;
    s
  end
  else begin
    let s = t.n_slots in
    if s = Array.length t.slots then begin
      let cap = max 8 (2 * s) in
      let slots = Array.make cap spent in
      Array.blit t.slots 0 slots 0 s;
      t.slots <- slots;
      t.free <- Array.make cap 0
    end;
    t.slots.(s) <- ev;
    t.n_slots <- s + 1;
    s
  end

let schedule_at t ~time f =
  if time < t.now then invalid_arg "Sim.schedule_at: time is in the past";
  let ev = { action = f; state = `Pending } in
  Queue.push t.queue ~key:time (lnot (take_slot t ev));
  ev

let schedule_after t ~delay f =
  if delay < 0 then invalid_arg "Sim.schedule_after: negative delay";
  schedule_at t ~time:(t.now + delay) f

let cancel ev = if ev.state = `Pending then ev.state <- `Cancelled
let cancelled ev = ev.state = `Cancelled

(* A repeating event: one live queue entry at a time, re-armed after each
   firing.  [stop] both flags the handle and cancels the armed entry, so
   a stopped periodic can never fire again and never keeps the queue
   non-empty (which would make [run] spin forever). *)
type periodic = {
  mutable armed : event option;
  mutable stopped : bool;
  mutable fired : int;
}

let periodic t ?until ~interval f =
  if interval <= 0 then invalid_arg "Sim.periodic: interval must be positive";
  let p = { armed = None; stopped = false; fired = 0 } in
  let rec arm () =
    let next = t.now + interval in
    match until with
    | Some limit when next > limit -> p.armed <- None
    | _ ->
        p.armed <-
          Some
            (schedule_at t ~time:next (fun () ->
                 p.armed <- None;
                 if not p.stopped then begin
                   p.fired <- p.fired + 1;
                   f ();
                   if not p.stopped then arm ()
                 end))
  in
  arm ();
  p

let stop_periodic p =
  p.stopped <- true;
  (match p.armed with Some ev -> cancel ev | None -> ());
  p.armed <- None

let periodic_fired p = p.fired

(* Pops the head and runs it unless it was cancelled; true if it ran. *)
let fire_head t =
  let time = Queue.top_key t.queue in
  let p = Queue.pop t.queue in
  if p >= 0 then begin
    t.now <- time;
    t.processed <- t.processed + 1;
    (Array.unsafe_get t.actions p) ();
    true
  end
  else begin
    let s = lnot p in
    let ev = t.slots.(s) in
    t.slots.(s) <- spent;
    t.free.(t.n_free) <- s;
    t.n_free <- t.n_free + 1;
    match ev.state with
    | `Cancelled -> false
    | `Fired -> assert false
    | `Pending ->
        t.now <- time;
        ev.state <- `Fired;
        t.processed <- t.processed + 1;
        ev.action ();
        true
  end

let rec step t = (not (Queue.is_empty t.queue)) && (fire_head t || step t)

let run ?until t =
  match until with
  | None ->
      while step t do
        ()
      done
  | Some limit ->
      (* One head per test against [limit]: [step] would skip a
         cancelled head and then run the next event, however late. *)
      while (not (Queue.is_empty t.queue)) && Queue.top_key t.queue <= limit do
        ignore (fire_head t : bool)
      done;
      if limit > t.now then t.now <- limit

let pending t = Queue.length t.queue
let events_processed t = t.processed
