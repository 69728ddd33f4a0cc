module Deque = Tq_util.Ring_deque

(* Two FIFOs, so neither a submit nor an occupy allocates a cell:
   [costs] holds what waits to be served, in serving order: an item's
   cost, or [lnot d] for a blackout of [d] ns (a cost with no item);
   [items] holds the item in service, if any, then the waiting items in
   order.  A blackout goes to the front of [costs] and touches no item,
   so the n-th item cost in [costs] always belongs to the n-th waiting
   item.  [in_service] is the code of what is being served.

   Not busy means [costs] is empty: [start_next] goes idle only when it
   finds nothing waiting. *)
type 'a t = {
  sim : Sim.t;
  serve : 'a -> unit;
  costs : int Deque.t;
  items : 'a Deque.t;
  mutable in_service : int;
  mutable busy : bool;
  mutable busy_time : int;
  mutable served : int;
  mutable finished : Sim.action;
}

let start t code =
  t.busy <- true;
  t.in_service <- code;
  Sim.post t.sim ~delay:(if code >= 0 then code else lnot code) t.finished

let start_next t =
  if Deque.is_empty t.costs then t.busy <- false else start t (Deque.pop_front t.costs)

(* The item leaves [items] only after [serve] returns, so a
   [queue_length] read inside [serve] still excludes it. *)
let finish t =
  let code = t.in_service in
  if code >= 0 then begin
    t.busy_time <- t.busy_time + code;
    t.served <- t.served + 1;
    t.serve (Deque.get t.items 0);
    ignore (Deque.pop_front t.items)
  end
  else t.busy_time <- t.busy_time + lnot code;
  start_next t

let create sim ~serve () =
  let t =
    {
      sim;
      serve;
      costs = Deque.create ();
      items = Deque.create ();
      in_service = lnot 0;
      busy = false;
      busy_time = 0;
      served = 0;
      finished = Sim.no_action;
    }
  in
  t.finished <- Sim.action sim (fun () -> finish t);
  t

let submit t ~cost item =
  if cost < 0 then invalid_arg "Busy_server.submit: negative cost";
  Deque.push_back t.items item;
  if t.busy then Deque.push_back t.costs cost else start t cost

let occupy t ~cost =
  if cost < 0 then invalid_arg "Busy_server.occupy: negative cost";
  (* Front of the queue: the blackout starts as soon as the op in
     service (if any) finishes, ahead of all waiting work — an outage
     does not politely queue behind pending requests. *)
  if t.busy then Deque.push_front t.costs (lnot cost) else start t (lnot cost)

let queue_length t =
  Deque.length t.items - if t.busy && t.in_service >= 0 then 1 else 0

let busy t = t.busy
let busy_time t = t.busy_time
let served t = t.served
