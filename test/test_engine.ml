(* Tests for tq_engine: event ordering, cancellation, busy server. *)

module Sim = Tq_engine.Sim
module Busy_server = Tq_engine.Busy_server

let check = Alcotest.check

let test_event_order () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore (Sim.schedule_at sim ~time:30 (fun () -> log := 30 :: !log));
  ignore (Sim.schedule_at sim ~time:10 (fun () -> log := 10 :: !log));
  ignore (Sim.schedule_at sim ~time:20 (fun () -> log := 20 :: !log));
  Sim.run sim;
  check Alcotest.(list int) "timestamp order" [ 10; 20; 30 ] (List.rev !log);
  check Alcotest.int "clock at last event" 30 (Sim.now sim)

let test_same_time_fifo () =
  let sim = Sim.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Sim.schedule_at sim ~time:7 (fun () -> log := i :: !log))
  done;
  Sim.run sim;
  check Alcotest.(list int) "fifo among equal timestamps" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_schedule_from_handler () =
  let sim = Sim.create () in
  let fired = ref [] in
  ignore
    (Sim.schedule_at sim ~time:5 (fun () ->
         fired := ("a", Sim.now sim) :: !fired;
         ignore (Sim.schedule_after sim ~delay:10 (fun () -> fired := ("b", Sim.now sim) :: !fired))));
  Sim.run sim;
  check
    Alcotest.(list (pair string int))
    "chained events" [ ("a", 5); ("b", 15) ] (List.rev !fired)

let test_schedule_past_rejected () =
  let sim = Sim.create () in
  ignore (Sim.schedule_at sim ~time:10 (fun () ->
      Alcotest.check_raises "past" (Invalid_argument "Sim.schedule_at: time is in the past")
        (fun () -> ignore (Sim.schedule_at sim ~time:5 ignore))));
  Sim.run sim

let test_cancel () =
  let sim = Sim.create () in
  let fired = ref false in
  let ev = Sim.schedule_at sim ~time:10 (fun () -> fired := true) in
  Sim.cancel ev;
  Alcotest.(check bool) "marked cancelled" true (Sim.cancelled ev);
  Sim.run sim;
  Alcotest.(check bool) "did not fire" false !fired;
  check Alcotest.int "no events processed" 0 (Sim.events_processed sim)

let test_run_until () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore (Sim.schedule_at sim ~time:10 (fun () -> log := 10 :: !log));
  ignore (Sim.schedule_at sim ~time:100 (fun () -> log := 100 :: !log));
  Sim.run ~until:50 sim;
  check Alcotest.(list int) "only early event" [ 10 ] !log;
  check Alcotest.int "clock advanced to limit" 50 (Sim.now sim);
  Sim.run sim;
  check Alcotest.(list int) "rest runs" [ 100; 10 ] !log

(* A cancelled head before the limit must not let [run ~until] reach
   past it to the next live event. *)
let test_run_until_cancelled_head () =
  let sim = Sim.create () in
  let log = ref [] in
  let early = Sim.schedule_at sim ~time:10 (fun () -> log := 10 :: !log) in
  ignore (Sim.schedule_at sim ~time:100 (fun () -> log := 100 :: !log));
  Sim.cancel early;
  Sim.run ~until:50 sim;
  check Alcotest.(list int) "nothing fires" [] !log;
  check Alcotest.int "clock stops at the limit" 50 (Sim.now sim);
  check Alcotest.int "live event still pending" 1 (Sim.pending sim);
  Sim.run sim;
  check Alcotest.(list int) "late event runs on the next run" [ 100 ] !log

let test_step () =
  let sim = Sim.create () in
  ignore (Sim.schedule_at sim ~time:1 ignore);
  Alcotest.(check bool) "step true" true (Sim.step sim);
  Alcotest.(check bool) "step false when drained" false (Sim.step sim)

let test_busy_server_serializes () =
  let sim = Sim.create () in
  let done_at = ref [] in
  let server =
    Busy_server.create sim ~serve:(fun i -> done_at := (i, Sim.now sim) :: !done_at) ()
  in
  for i = 1 to 3 do
    Busy_server.submit server ~cost:10 i
  done;
  check Alcotest.int "two queued behind one in service" 2 (Busy_server.queue_length server);
  Sim.run sim;
  check
    Alcotest.(list (pair int int))
    "serialized completions" [ (1, 10); (2, 20); (3, 30) ] (List.rev !done_at);
  check Alcotest.int "busy time" 30 (Busy_server.busy_time server);
  check Alcotest.int "served" 3 (Busy_server.served server);
  Alcotest.(check bool) "idle after drain" false (Busy_server.busy server)

let test_busy_server_idle_restart () =
  let sim = Sim.create () in
  let log = ref [] in
  let server = Busy_server.create sim ~serve:(fun x -> log := (x, Sim.now sim) :: !log) () in
  Busy_server.submit server ~cost:5 "a";
  Sim.run sim;
  (* Submit again after the server went idle. *)
  ignore (Sim.schedule_at sim ~time:100 (fun () -> Busy_server.submit server ~cost:5 "b"));
  Sim.run sim;
  check
    Alcotest.(list (pair string int))
    "restarts cleanly" [ ("a", 5); ("b", 105) ] (List.rev !log)

let test_busy_server_varied_costs () =
  let sim = Sim.create () in
  let finish = ref [] in
  let server =
    Busy_server.create sim ~serve:(fun x -> finish := (x, Sim.now sim) :: !finish) ()
  in
  List.iter (fun (name, cost) -> Busy_server.submit server ~cost name) [ ("slow", 100); ("fast", 1) ];
  Sim.run sim;
  check
    Alcotest.(list (pair string int))
    "fifo even when second is cheap" [ ("slow", 100); ("fast", 101) ] (List.rev !finish)

let test_event_storm_deterministic () =
  (* Two identical simulations must execute identically. *)
  let run () =
    let sim = Sim.create () in
    let rng = Tq_util.Prng.create ~seed:99L in
    let sum = ref 0 in
    let rec spawn depth =
      if depth < 12 then
        ignore
          (Sim.schedule_after sim ~delay:(Tq_util.Prng.int rng 100 + 1) (fun () ->
               sum := !sum + Sim.now sim;
               spawn (depth + 1);
               spawn (depth + 1)))
    in
    spawn 0;
    Sim.run sim;
    (!sum, Sim.events_processed sim)
  in
  let a = run () and b = run () in
  check Alcotest.(pair int int) "deterministic" a b

let test_periodic_bounded () =
  let sim = Sim.create () in
  let fired = ref [] in
  let p = Sim.periodic sim ~until:100 ~interval:25 (fun () -> fired := Sim.now sim :: !fired) in
  Sim.run sim;
  check Alcotest.(list int) "fires every interval up to until" [ 25; 50; 75; 100 ]
    (List.rev !fired);
  check Alcotest.int "fired count" 4 (Sim.periodic_fired p)

let test_periodic_stop () =
  let sim = Sim.create () in
  let fired = ref 0 in
  let p = Sim.periodic sim ~interval:10 (fun () -> incr fired) in
  ignore
    (Sim.schedule_at sim ~time:35 (fun () ->
         Sim.stop_periodic p;
         (* Idempotent. *)
         Sim.stop_periodic p));
  Sim.run sim;
  check Alcotest.int "stopped after 3 firings" 3 !fired;
  check Alcotest.int "fired count matches" 3 (Sim.periodic_fired p)

let test_busy_server_occupy () =
  let sim = Sim.create () in
  let done_at = ref [] in
  let srv = Busy_server.create sim ~serve:(fun v -> done_at := (v, Sim.now sim) :: !done_at) () in
  let submit v = Busy_server.submit srv ~cost:10 v in
  submit "a";
  (* Blackout jumps ahead of the queued "b": real work resumes only
     after the outage window. *)
  submit "b";
  Busy_server.occupy srv ~cost:100;
  Sim.run sim;
  check
    Alcotest.(list (pair string int))
    "occupy delays queued work" [ ("a", 10); ("b", 120) ] (List.rev !done_at);
  check Alcotest.int "occupy is not a served item" 2 (Busy_server.served srv)

(* The list model of a busy server: an item or a blackout in service,
   then the waiting entries in serving order. *)
type model_entry = Item of int * int | Blackout of int

(* [ops] are (time, item, cost) in time order, an item of -1 being an
   outage.  Replays them on a list model and returns what a busy server
   must report: each item's finish time in finishing order, the waiting
   item count after each op, the busy time and the served count.  An op
   at time [t] runs before a finish at [t]: the ops are scheduled before
   any finish is posted. *)
let busy_server_model ops =
  let current = ref None and waiting = ref [] in
  let finished = ref [] and busy_time = ref 0 and served = ref 0 in
  let cost_of = function Item (_, c) | Blackout c -> c in
  let advance ~before =
    let rec go () =
      match !current with
      | Some (finish, e) when finish < before ->
          busy_time := !busy_time + cost_of e;
          (match e with
          | Item (i, _) ->
              incr served;
              finished := (i, finish) :: !finished
          | Blackout _ -> ());
          (match !waiting with
          | [] -> current := None
          | next :: rest ->
              waiting := rest;
              current := Some (finish + cost_of next, next));
          go ()
      | _ -> ()
    in
    go ()
  in
  let lengths =
    List.map
      (fun (time, item, cost) ->
        advance ~before:time;
        let e = if item < 0 then Blackout cost else Item (item, cost) in
        (match !current with
        | None -> current := Some (time + cost, e)
        | Some _ -> if item < 0 then waiting := e :: !waiting else waiting := !waiting @ [ e ]);
        List.length (List.filter (function Item _ -> true | Blackout _ -> false) !waiting))
      ops
  in
  advance ~before:max_int;
  (List.rev !finished, lengths, !busy_time, !served)

let test_busy_server_model =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"busy server matches a list model"
       QCheck.(list (triple (int_bound 30) (int_bound 3) (int_bound 20)))
       (fun raw ->
         let time = ref 0 in
         let ops =
           List.mapi
             (fun i (gap, kind, cost) ->
               time := !time + gap;
               (!time, (if kind = 0 then -1 else i), cost))
             raw
         in
         let sim = Sim.create () in
         let finished = ref [] and lengths = ref [] in
         let srv =
           Busy_server.create sim ~serve:(fun i -> finished := (i, Sim.now sim) :: !finished) ()
         in
         List.iter
           (fun (time, item, cost) ->
             ignore
               (Sim.schedule_at sim ~time (fun () ->
                    if item < 0 then Busy_server.occupy srv ~cost
                    else Busy_server.submit srv ~cost item;
                    lengths := Busy_server.queue_length srv :: !lengths)
                 : Sim.event))
           ops;
         Sim.run sim;
         (List.rev !finished, List.rev !lengths, Busy_server.busy_time srv, Busy_server.served srv)
         = busy_server_model ops))

(* Posts and one-shots share one (time, insertion order) queue. *)
let test_post_order () =
  let sim = Sim.create () in
  let log = ref [] in
  let note name = Sim.action sim (fun () -> log := (name, Sim.now sim) :: !log) in
  let a = note "a" and b = note "b" in
  Sim.post sim ~delay:10 b;
  ignore (Sim.schedule_at sim ~time:10 (fun () -> log := ("closure", Sim.now sim) :: !log));
  Sim.post sim ~delay:10 a;
  Sim.post sim ~delay:5 a;
  Sim.run sim;
  check
    Alcotest.(list (pair string int))
    "time, then insertion order"
    [ ("a", 5); ("b", 10); ("closure", 10); ("a", 10) ]
    (List.rev !log);
  check Alcotest.int "every post counted" 4 (Sim.events_processed sim)

let test_post_rejected () =
  let sim = Sim.create () and other = Sim.create () in
  let a = Sim.action sim ignore in
  Alcotest.check_raises "negative delay" (Invalid_argument "Sim.post: negative delay")
    (fun () -> Sim.post sim ~delay:(-1) a);
  Alcotest.check_raises "foreign action" (Invalid_argument "Sim.post: unregistered action")
    (fun () -> Sim.post other ~delay:0 a);
  Alcotest.check_raises "no action" (Invalid_argument "Sim.post: unregistered action")
    (fun () -> Sim.post sim ~delay:0 Sim.no_action)

(* The steady state of a simulated system: 16 pending events, each run
   of an action posts one more a varied delay later. *)
let test_post_allocation_free () =
  let sim = Sim.create () in
  let n = ref 0 in
  let again = ref Sim.no_action in
  again :=
    Sim.action sim (fun () ->
        incr n;
        Sim.post sim ~delay:(1 + (!n * 7919 land 1023)) !again);
  for i = 1 to 16 do
    Sim.post sim ~delay:i !again
  done;
  check (Alcotest.float 0.0) "post+run action at 16 pending" 0.0
    (Test_util.minor_words_per_call (fun () -> ignore (Sim.step sim : bool)));
  check Alcotest.int "still 16 pending" 16 (Sim.pending sim)

let suite =
  [
    Alcotest.test_case "event order" `Quick test_event_order;
    Alcotest.test_case "periodic bounded" `Quick test_periodic_bounded;
    Alcotest.test_case "periodic stop" `Quick test_periodic_stop;
    Alcotest.test_case "busy server occupy" `Quick test_busy_server_occupy;
    Alcotest.test_case "same-time fifo" `Quick test_same_time_fifo;
    Alcotest.test_case "schedule from handler" `Quick test_schedule_from_handler;
    Alcotest.test_case "schedule past rejected" `Quick test_schedule_past_rejected;
    Alcotest.test_case "cancel" `Quick test_cancel;
    Alcotest.test_case "run until" `Quick test_run_until;
    Alcotest.test_case "run until past cancelled head" `Quick test_run_until_cancelled_head;
    Alcotest.test_case "step" `Quick test_step;
    Alcotest.test_case "post order" `Quick test_post_order;
    Alcotest.test_case "post rejected" `Quick test_post_rejected;
    Alcotest.test_case "post+run action allocation-free" `Quick test_post_allocation_free;
    Alcotest.test_case "busy server serializes" `Quick test_busy_server_serializes;
    Alcotest.test_case "busy server restart" `Quick test_busy_server_idle_restart;
    Alcotest.test_case "busy server varied costs" `Quick test_busy_server_varied_costs;
    test_busy_server_model;
    Alcotest.test_case "deterministic storm" `Quick test_event_storm_deterministic;
  ]

