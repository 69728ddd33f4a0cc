module Deque = Tq_util.Ring_deque

(* [Blackout]s come from [occupy]: they burn server time but are not
   work. *)
type 'a entry = Item of int * 'a | Blackout of int

(* Not busy means the queue is empty: [start_next] goes idle only when
   it finds nothing waiting. *)
type 'a t = {
  sim : Sim.t;
  serve : 'a -> unit;
  queue : 'a entry Deque.t;
  mutable in_service : 'a entry;
  mutable busy : bool;
  mutable busy_time : int;
  mutable served : int;
  mutable finished : Sim.action;
}

let start t e =
  t.busy <- true;
  t.in_service <- e;
  Sim.post t.sim ~delay:(match e with Item (cost, _) | Blackout cost -> cost) t.finished

let start_next t =
  match Deque.pop_front t.queue with None -> t.busy <- false | Some e -> start t e

let finish t =
  (match t.in_service with
  | Item (cost, item) ->
      t.busy_time <- t.busy_time + cost;
      t.served <- t.served + 1;
      t.serve item
  | Blackout cost -> t.busy_time <- t.busy_time + cost);
  start_next t

let create sim ~serve () =
  let t =
    {
      sim;
      serve;
      queue = Deque.create ();
      in_service = Blackout 0;
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
  let e = Item (cost, item) in
  if t.busy then Deque.push_back t.queue e else start t e

let occupy t ~cost =
  if cost < 0 then invalid_arg "Busy_server.occupy: negative cost";
  (* Front of the queue: the blackout starts as soon as the op in
     service (if any) finishes, ahead of all waiting work — an outage
     does not politely queue behind pending requests. *)
  let e = Blackout cost in
  if t.busy then Deque.push_front t.queue e else start t e

let queue_length t = Deque.length t.queue
let busy t = t.busy
let busy_time t = t.busy_time
let served t = t.served
