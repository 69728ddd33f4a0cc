module Heap = Tq_util.Binary_heap

type event = { action : unit -> unit; mutable state : [ `Pending | `Cancelled | `Fired ] }

type t = { heap : event Heap.t; mutable now : int; mutable processed : int }

let dummy_event = { action = ignore; state = `Fired }
let create () = { heap = Heap.create ~dummy:dummy_event (); now = 0; processed = 0 }
let now t = t.now

let schedule_at t ~time f =
  if time < t.now then invalid_arg "Sim.schedule_at: time is in the past";
  let ev = { action = f; state = `Pending } in
  Heap.push t.heap ~key:time ev;
  ev

let schedule_after t ~delay f =
  if delay < 0 then invalid_arg "Sim.schedule_after: negative delay";
  schedule_at t ~time:(t.now + delay) f

let cancel ev = if ev.state = `Pending then ev.state <- `Cancelled
let cancelled ev = ev.state = `Cancelled

(* A repeating event: one live heap entry at a time, re-armed after each
   firing.  [stop] both flags the handle and cancels the armed entry, so
   a stopped periodic can never fire again and never keeps the heap
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
  let time = Heap.top_key t.heap in
  let ev = Heap.pop t.heap in
  match ev.state with
  | `Cancelled -> false
  | `Fired -> assert false
  | `Pending ->
      t.now <- time;
      ev.state <- `Fired;
      t.processed <- t.processed + 1;
      ev.action ();
      true

let rec step t = (not (Heap.is_empty t.heap)) && (fire_head t || step t)

let run ?until t =
  match until with
  | None ->
      while step t do
        ()
      done
  | Some limit ->
      (* One head per test against [limit]: [step] would skip a
         cancelled head and then run the next event, however late. *)
      while (not (Heap.is_empty t.heap)) && Heap.top_key t.heap <= limit do
        ignore (fire_head t : bool)
      done;
      if limit > t.now then t.now <- limit

let pending t = Heap.length t.heap
let events_processed t = t.processed
