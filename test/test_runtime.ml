(* Tests for tq_runtime: fibers, probe API, workers, rings, the pool. *)

open Tq_runtime
module Time_unit = Tq_util.Time_unit

let check = Alcotest.check

(* --- Fiber --- *)

let test_fiber_runs_to_completion () =
  let f = Fiber.create (fun () -> 42) in
  (match Fiber.resume f with
  | Fiber.Done v -> check Alcotest.int "result" 42 v
  | Fiber.Yielded -> Alcotest.fail "unexpected yield");
  Alcotest.(check bool) "finished" true (Fiber.finished f)

let test_fiber_yields () =
  let log = ref [] in
  let f =
    Fiber.create (fun () ->
        log := "a" :: !log;
        Fiber.yield ();
        log := "b" :: !log;
        Fiber.yield ();
        log := "c" :: !log;
        7)
  in
  Alcotest.(check bool) "yield 1" true (Fiber.resume f = Fiber.Yielded);
  Alcotest.(check bool) "yield 2" true (Fiber.resume f = Fiber.Yielded);
  (match Fiber.resume f with
  | Fiber.Done v -> check Alcotest.int "value" 7 v
  | Fiber.Yielded -> Alcotest.fail "should finish");
  check Alcotest.(list string) "segments in order" [ "a"; "b"; "c" ] (List.rev !log);
  check Alcotest.int "three resumes" 3 (Fiber.resumes f)

let test_fiber_interleaving () =
  let log = ref [] in
  let mk name =
    Fiber.create (fun () ->
        for i = 1 to 3 do
          log := Printf.sprintf "%s%d" name i :: !log;
          if i < 3 then Fiber.yield ()
        done)
  in
  let a = mk "a" and b = mk "b" in
  let rec round () =
    let progressed = ref false in
    List.iter
      (fun f ->
        if not (Fiber.finished f) then begin
          ignore (Fiber.resume f);
          progressed := true
        end)
      [ a; b ];
    if !progressed then round ()
  in
  round ();
  check Alcotest.(list string) "round robin interleave"
    [ "a1"; "b1"; "a2"; "b2"; "a3"; "b3" ]
    (List.rev !log)

let test_fiber_resume_after_done_rejected () =
  let f = Fiber.create (fun () -> ()) in
  ignore (Fiber.resume f);
  Alcotest.check_raises "double resume" (Invalid_argument "Fiber.resume: fiber already finished")
    (fun () -> ignore (Fiber.resume f))

let test_fiber_exception_propagates () =
  let f = Fiber.create (fun () -> failwith "boom") in
  Alcotest.check_raises "exception" (Failure "boom") (fun () -> ignore (Fiber.resume f))

let test_yield_outside_fiber_rejected () =
  Alcotest.check_raises "outside" (Invalid_argument "Fiber.yield: called outside a fiber")
    (fun () -> Fiber.yield ())

(* --- Clock --- *)

let test_virtual_clock () =
  let c = Clock.virtual_ () in
  check Alcotest.int "starts at 0" 0 (Clock.now_ns c);
  Clock.advance c 500;
  check Alcotest.int "advanced" 500 (Clock.now_ns c)

let test_wall_clock_advances () =
  let c = Clock.wall () in
  Alcotest.check_raises "no manual advance"
    (Invalid_argument "Clock.advance: wall clocks advance themselves") (fun () ->
      Clock.advance c 1);
  let a = Clock.now_ns c in
  let b = Clock.now_ns c in
  Alcotest.(check bool) "monotone-ish" true (b >= a)

(* --- Probe API --- *)

let with_ctx ~quantum_ns f =
  let clock = Clock.virtual_ () in
  let ctx = Probe_api.create ~clock ~quantum_ns in
  Probe_api.install ctx;
  Fun.protect ~finally:Probe_api.uninstall (fun () -> f clock ctx)

let test_probe_yields_on_expiry () =
  with_ctx ~quantum_ns:1000 (fun clock ctx ->
      let yields = ref 0 in
      let f =
        Fiber.create (fun () ->
            for _ = 1 to 10 do
              Clock.advance clock 300;
              Probe_api.probe ()
            done)
      in
      Probe_api.start_quantum ctx;
      let rec drive () =
        match Fiber.resume f with
        | Fiber.Yielded ->
            incr yields;
            Probe_api.start_quantum ctx;
            drive ()
        | Fiber.Done () -> ()
      in
      drive ();
      (* 3000ns of work, quantum 1000, probes every 300: yields at 1200,
         2400 -> 2 yields (the tail never refills a full quantum). *)
      check Alcotest.int "two yields" 2 !yields;
      check Alcotest.int "ctx counted them" 2 (Probe_api.yields_taken ctx);
      check Alcotest.int "ten probes" 10 (Probe_api.probes_executed ctx))

let test_probe_noop_without_context () =
  (* Probed code running outside TQ must not fail. *)
  Probe_api.probe ();
  Probe_api.critical_begin ();
  Probe_api.critical_end ()

let test_critical_section_defers_yield () =
  with_ctx ~quantum_ns:100 (fun clock ctx ->
      let phase = ref [] in
      let f =
        Fiber.create (fun () ->
            Probe_api.critical_begin ();
            Clock.advance clock 1000;
            Probe_api.probe ();
            (* expired, but suppressed *)
            phase := "in-critical" :: !phase;
            Probe_api.critical_end ();
            (* deferred yield fires here *)
            phase := "after-critical" :: !phase)
      in
      Probe_api.start_quantum ctx;
      Alcotest.(check bool) "yielded at critical exit" true (Fiber.resume f = Fiber.Yielded);
      check Alcotest.(list string) "suppressed inside" [ "in-critical" ] !phase;
      Probe_api.start_quantum ctx;
      Alcotest.(check bool) "completes" true (Fiber.resume f = Fiber.Done ()))

let test_nested_critical_sections () =
  with_ctx ~quantum_ns:100 (fun clock ctx ->
      let f =
        Fiber.create (fun () ->
            Probe_api.critical_begin ();
            Probe_api.critical_begin ();
            Clock.advance clock 500;
            Probe_api.critical_end ();
            (* still nested: no yield *)
            Probe_api.probe ();
            Probe_api.critical_end ())
      in
      Probe_api.start_quantum ctx;
      Alcotest.(check bool) "yields only at outermost exit" true
        (Fiber.resume f = Fiber.Yielded))

(* [work clock ns] is a task body that credits [ns] of virtual work to
   [clock] in 250 ns steps, probing before each step.  Probing after
   each step instead would make a task whose work ends exactly on a
   quantum boundary yield once more before it finishes, which the DES
   worker (and a real instrumented loop that falls out) does not do. *)
let work clock ns =
  let remaining = ref ns in
  while !remaining > 0 do
    Probe_api.probe ();
    let step = min 250 !remaining in
    Clock.advance clock step;
    remaining := !remaining - step
  done

let test_work_ns_virtual () =
  with_ctx ~quantum_ns:1_000 (fun clock ctx ->
      let f = Fiber.create (fun () -> work clock 3_000) in
      Probe_api.start_quantum ctx;
      let yields = ref 0 in
      let rec drive () =
        match Fiber.resume f with
        | Fiber.Yielded ->
            incr yields;
            Probe_api.start_quantum ctx;
            drive ()
        | Fiber.Done () -> ()
      in
      drive ();
      check Alcotest.int "virtual time consumed" 3_000 (Clock.now_ns clock);
      (* Quantum boundaries at 1000 and 2000; the work ends exactly at
         the third boundary, so the task finishes there. *)
      check Alcotest.int "yields at quantum boundaries" 2 !yields)

(* --- Task worker --- *)

let test_worker_ps_rotation () =
  let clock = Clock.virtual_ () in
  let finished = ref [] in
  let w =
    Task_worker.create ~clock ~quantum_ns:1_000
      ~on_finish:(fun r -> finished := r.Task_worker.task.task_id :: !finished)
      ()
  in
  Task_worker.submit w
    { Task_worker.task_id = 1; class_idx = 0; work = (fun ~wid:_ -> work clock 5_000) };
  Task_worker.submit w
    { Task_worker.task_id = 2; class_idx = 0; work = (fun ~wid:_ -> work clock 1_000) };
  Task_worker.run_until_idle w;
  check Alcotest.(list int) "short task finishes first" [ 2; 1 ] (List.rev !finished);
  check Alcotest.int "all finished" 0 (Task_worker.unfinished w);
  check Alcotest.int "finished count" 2 (Task_worker.finished_count w);
  Alcotest.(check bool) "yields happened" true (Task_worker.total_yields w > 0)

let test_worker_counters () =
  let clock = Clock.virtual_ () in
  let w = Task_worker.create ~clock ~quantum_ns:1_000 ~on_finish:(fun _ -> ()) () in
  Task_worker.submit w
    { Task_worker.task_id = 1; class_idx = 0; work = (fun ~wid:_ -> work clock 2_500) };
  check Alcotest.int "unfinished" 1 (Task_worker.unfinished w);
  ignore (Task_worker.run_slice w);
  Alcotest.(check bool) "accumulates quanta" true (Task_worker.current_quanta w > 0);
  Task_worker.run_until_idle w;
  check Alcotest.int "quanta released on finish" 0 (Task_worker.current_quanta w)

(* A task's residency, on a virtual clock with a 1000 ns quantum: task
   1 (2500 ns) runs 0-1000, task 2 (1000 ns) 1000-2000, task 1 again
   2000-3000 and 3000-3500.  The stall counter is bumped once per slice
   (before [on_finish]) and the GC clock by 7 per read, so their growth
   over each stay is exact. *)
let test_worker_residency () =
  let clock = Clock.virtual_ () in
  let stalls = Tq_obs.Counters.counter (Tq_obs.Counters.create ()) "runtime.stalls" in
  let gc = ref 0 in
  let done_ = ref [] in
  let w =
    Task_worker.create ~clock ~quantum_ns:1_000 ~stalls
      ~on_quantum:(fun ~task_id:_ ~start_ns:_ ~end_ns:_ ~finished:_ ->
        Tq_obs.Counters.incr stalls)
      ~gc_pause_ns:(fun () ->
        gc := !gc + 7;
        !gc)
      ~on_finish:(fun (r : Task_worker.residency) ->
        done_ :=
          [ r.task.task_id; r.pickup_ns; r.first_ns; r.run_ns; r.last_end_ns; r.quanta;
            r.stalls; r.gc_pause_ns ]
          :: !done_)
      ()
  in
  List.iter
    (fun (id, ns) ->
      Task_worker.submit w
        { Task_worker.task_id = id; class_idx = 0; work = (fun ~wid:_ -> work clock ns) })
    [ (1, 2_500); (2, 1_000) ];
  Task_worker.run_until_idle w;
  (* id, pickup, first, run, last end, quanta, stalls, gc pause *)
  check
    Alcotest.(list (list int))
    "residencies in finish order"
    [ [ 2; 0; 1_000; 1_000; 2_000; 1; 2; 7 ]; [ 1; 0; 0; 2_500; 3_500; 3; 4; 21 ] ]
    (List.rev !done_)

(* --- Differential: live worker vs the DES worker model --- *)

(* Per-job (id, completion time) in completion order, from one
   [Task_worker] on a virtual clock. *)
let live_completions ~quantum_ns services =
  let clock = Clock.virtual_ () in
  let done_ = ref [] in
  let w =
    Task_worker.create ~clock ~quantum_ns
      ~on_finish:(fun r -> done_ := (r.Task_worker.task.task_id, Clock.now_ns clock) :: !done_)
      ()
  in
  List.iteri
    (fun id ns ->
      Task_worker.submit w
        { Task_worker.task_id = id; class_idx = 0; work = (fun ~wid:_ -> work clock ns) })
    services;
  Task_worker.run_until_idle w;
  List.rev !done_

(* The same, from one DES [Worker] under processor sharing with no
   overheads: the model the simulated figures rest on. *)
let des_completions ~quantum_ns services =
  let module Sim = Tq_engine.Sim in
  let module Worker = Tq_sched.Worker in
  let sim = Sim.create () in
  let done_ = ref [] in
  let w =
    Worker.create sim ~wid:0 ~rng:(Tq_util.Prng.create ~seed:1L)
      ~policy:(Worker.Ps { quantum_ns; per_class_quantum = None })
      ~overheads:Tq_sched.Overheads.zero
      ~on_finish:(fun (job : Tq_sched.Job.t) -> done_ := (job.id, Sim.now sim) :: !done_)
      ()
  in
  List.iteri
    (fun id ns ->
      Worker.note_assigned w;
      Worker.enqueue w
        { Tq_sched.Job.id; class_idx = 0; service_ns = ns; arrival_ns = 0;
          initial_effective_ns = ns; remaining_ns = ns; serviced_quanta = 0 })
    services;
  Sim.run sim;
  List.rev !done_

let prop_live_worker_matches_des =
  (* 2-9 jobs submitted at t=0; service times and the quantum are
     multiples of the 250 ns work step, so boundaries coincide often. *)
  let gen =
    QCheck.Gen.(
      pair (int_range 1 8) (list_size (int_range 2 9) (int_range 1 40))
      |> map (fun (q, steps) -> (250 * q, List.map (fun s -> 250 * s) steps)))
  in
  let print (q, services) =
    Printf.sprintf "quantum %d, services [%s]" q
      (String.concat "; " (List.map string_of_int services))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"live worker matches DES worker"
       (QCheck.make ~print gen)
       (fun (quantum_ns, services) ->
         live_completions ~quantum_ns services = des_completions ~quantum_ns services))

(* --- SPSC ring --- *)

let test_ring_fifo () =
  let r = Spsc_ring.create ~capacity:4 in
  Alcotest.(check bool) "push 1" true (Spsc_ring.try_push r 1);
  Alcotest.(check bool) "push 2" true (Spsc_ring.try_push r 2);
  check Alcotest.(option int) "pop 1" (Some 1) (Spsc_ring.try_pop r);
  check Alcotest.(option int) "pop 2" (Some 2) (Spsc_ring.try_pop r);
  check Alcotest.(option int) "empty" None (Spsc_ring.try_pop r)

let test_ring_capacity () =
  let r = Spsc_ring.create ~capacity:2 in
  Alcotest.(check bool) "1" true (Spsc_ring.try_push r 1);
  Alcotest.(check bool) "2" true (Spsc_ring.try_push r 2);
  Alcotest.(check bool) "full" false (Spsc_ring.try_push r 3);
  ignore (Spsc_ring.try_pop r);
  Alcotest.(check bool) "space again" true (Spsc_ring.try_push r 3);
  check Alcotest.int "length" 2 (Spsc_ring.length r)

let test_ring_wraparound () =
  let r = Spsc_ring.create ~capacity:3 in
  for round = 1 to 10 do
    Alcotest.(check bool) "push" true (Spsc_ring.try_push r round);
    check Alcotest.(option int) "pop" (Some round) (Spsc_ring.try_pop r)
  done

let test_ring_cross_domain () =
  let r = Spsc_ring.create ~capacity:16 in
  let n = 10_000 in
  let consumer =
    Domain.spawn (fun () ->
        let sum = ref 0 and received = ref 0 in
        while !received < n do
          match Spsc_ring.try_pop r with
          | Some v ->
              sum := !sum + v;
              incr received
          | None -> Domain.cpu_relax ()
        done;
        !sum)
  in
  for i = 1 to n do
    while not (Spsc_ring.try_push r i) do
      Domain.cpu_relax ()
    done
  done;
  check Alcotest.int "all values transferred" (n * (n + 1) / 2) (Domain.join consumer)

(* Boxed payloads across two domains: the cells are plain array slots
   ordered only by the atomic cursors, so every value popped must be the
   one pushed, in order, while both sides allocate and collect.  A small
   ring wraps constantly; a 1024-cell one lives in the major heap, so
   each push stores a young block into an old array. *)
let test_ring_cross_domain_boxed () =
  List.iter
    (fun capacity ->
      let r = Spsc_ring.create ~capacity in
      let n = 50_000 in
      let consumer =
        Domain.spawn (fun () ->
            let bad = ref 0 and received = ref 0 in
            while !received < n do
              match Spsc_ring.try_pop r with
              | Some (i, s, f) ->
                  if i <> !received || s <> string_of_int i || f <> float_of_int i then incr bad;
                  incr received
              | None -> Domain.cpu_relax ()
            done;
            !bad)
      in
      for i = 0 to n - 1 do
        let v = (i, string_of_int i, float_of_int i) in
        while not (Spsc_ring.try_push r v) do
          Domain.cpu_relax ()
        done
      done;
      check Alcotest.int
        (Printf.sprintf "values out of order or torn (capacity %d)" capacity)
        0 (Domain.join consumer))
    [ 3; 1024 ]

(* Building a reply ring forces no minor collection (a fresh block as
   [Array.init]'s first element of a long array would), and a push
   allocates nothing. *)
let test_ring_allocation () =
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.minor_collections in
  let r = Spsc_ring.create ~capacity:1024 in
  check Alcotest.int "minor collections to create 1024 cells" 0
    ((Gc.quick_stat ()).Gc.minor_collections - before);
  let v = Some 1 in
  let words = Gc.minor_words () in
  for _ = 1 to 1024 do
    ignore (Spsc_ring.try_push r v : bool)
  done;
  check (Alcotest.float 0.0) "minor words for 1024 pushes" 0.0 (Gc.minor_words () -. words);
  check Alcotest.(option (option int)) "pop" (Some v) (Spsc_ring.try_pop r)

(* --- Parallel executor --- *)

(* Submit a fixed batch and shut down; the pre-redesign [Parallel.run]
   convenience collapsed to exactly this create/submit/shutdown shape. *)
let run_batch ~workers ~quantum_ns jobs =
  let pool = Parallel.create ~workers ~quantum_ns () in
  Parallel.start pool;
  Array.iter
    (fun job ->
      while not (Parallel.submit pool (fun ~wid:_ -> job ())) do
        Domain.cpu_relax ()
      done)
    jobs;
  Parallel.shutdown pool

let test_parallel_completes () =
  let counter = Atomic.make 0 in
  let jobs = Array.init 40 (fun _ -> fun () -> Atomic.incr counter) in
  let stats = run_batch ~workers:2 ~quantum_ns:1_000_000 jobs in
  check Alcotest.int "completed" 40 stats.Parallel.completed;
  check Alcotest.int "all side effects" 40 (Atomic.get counter);
  check Alcotest.int "per-worker adds up" 40
    (Array.fold_left ( + ) 0 stats.Parallel.per_worker_finished)

let test_parallel_balances () =
  let jobs = Array.init 64 (fun _ -> fun () -> ignore (Sys.opaque_identity (ref 0))) in
  let stats = run_batch ~workers:4 ~quantum_ns:1_000_000 jobs in
  Array.iter
    (fun c -> Alcotest.(check bool) "every worker got work" true (c > 0))
    stats.Parallel.per_worker_finished

let suite =
  [
    Alcotest.test_case "fiber completion" `Quick test_fiber_runs_to_completion;
    Alcotest.test_case "fiber yields" `Quick test_fiber_yields;
    Alcotest.test_case "fiber interleaving" `Quick test_fiber_interleaving;
    Alcotest.test_case "fiber double resume" `Quick test_fiber_resume_after_done_rejected;
    Alcotest.test_case "fiber exception" `Quick test_fiber_exception_propagates;
    Alcotest.test_case "yield outside fiber" `Quick test_yield_outside_fiber_rejected;
    Alcotest.test_case "virtual clock" `Quick test_virtual_clock;
    Alcotest.test_case "wall clock" `Quick test_wall_clock_advances;
    Alcotest.test_case "probe yields on expiry" `Quick test_probe_yields_on_expiry;
    Alcotest.test_case "probe noop without ctx" `Quick test_probe_noop_without_context;
    Alcotest.test_case "critical section" `Quick test_critical_section_defers_yield;
    Alcotest.test_case "nested critical" `Quick test_nested_critical_sections;
    Alcotest.test_case "work_ns virtual" `Quick test_work_ns_virtual;
    Alcotest.test_case "worker ps rotation" `Quick test_worker_ps_rotation;
    Alcotest.test_case "worker counters" `Quick test_worker_counters;
    prop_live_worker_matches_des;
    Alcotest.test_case "ring fifo" `Quick test_ring_fifo;
    Alcotest.test_case "ring capacity" `Quick test_ring_capacity;
    Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
    Alcotest.test_case "ring cross domain" `Quick test_ring_cross_domain;
    Alcotest.test_case "ring cross domain boxed" `Quick test_ring_cross_domain_boxed;
    Alcotest.test_case "ring set-up and push allocation" `Quick test_ring_allocation;
    Alcotest.test_case "parallel completes" `Quick test_parallel_completes;
    Alcotest.test_case "parallel balances" `Quick test_parallel_balances;
  ]

(* --- Parallel: the persistent handle API behind tq_serve --- *)

(* The test's own retry pause while a ring is full or a counter has
   not moved yet: it frees the core for the workers. *)
let nap () = Unix.sleepf 1e-5

let test_parallel_handle_lifecycle () =
  let pool = Parallel.create ~workers:2 ~ring_capacity:8 () in
  Parallel.start pool;
  check Alcotest.int "workers" 2 (Parallel.workers pool);
  let hits = Array.init 2 (fun _ -> Atomic.make 0) in
  let submitted = ref 0 in
  for i = 0 to 99 do
    let w = i mod 2 in
    while not (Parallel.submit_to pool ~worker:w (fun ~wid:_ -> Atomic.incr hits.(w))) do
      nap ()
    done;
    incr submitted
  done;
  Parallel.drain pool;
  check Alcotest.int "drained" 0 (Parallel.in_flight pool);
  let stats = Parallel.shutdown pool in
  check Alcotest.int "completed" 100 stats.Parallel.completed;
  check Alcotest.int "worker 0 ran its share" 50 (Atomic.get hits.(0));
  check Alcotest.int "worker 1 ran its share" 50 (Atomic.get hits.(1));
  check Alcotest.(array int) "per-worker accounting" [| 50; 50 |]
    stats.Parallel.per_worker_finished

let test_parallel_submit_after_shutdown () =
  let pool = Parallel.create ~workers:1 () in
  Parallel.start pool;
  ignore (Parallel.submit pool (fun ~wid:_ -> ()));
  let s1 = Parallel.shutdown pool in
  (* idempotent: a second shutdown just reports the same stats *)
  let s2 = Parallel.shutdown pool in
  check Alcotest.int "stable stats" s1.Parallel.completed s2.Parallel.completed;
  Alcotest.check_raises "submit after shutdown"
    (Invalid_argument "Parallel.submit_to: pool is shut down") (fun () ->
      ignore (Parallel.submit pool (fun ~wid:_ -> ())));
  Alcotest.check_raises "bad worker index rejected before spawn side effects"
    (Invalid_argument "Parallel.submit_to: pool is shut down") (fun () ->
      ignore (Parallel.submit_to pool ~worker:7 (fun ~wid:_ -> ())))

let test_parallel_pick_least_loaded () =
  let pool = Parallel.create ~workers:3 ~ring_capacity:64 () in
  Parallel.start pool;
  (* nothing in flight: pick must name a valid worker *)
  let w = Parallel.pick pool in
  check Alcotest.bool "valid worker" true (w >= 0 && w < 3);
  Parallel.drain pool;
  ignore (Parallel.shutdown pool)

let test_parallel_shutdown_drains_backlog () =
  (* shutdown alone must already be a zero-loss drain: every accepted
     job runs even with a deep backlog of slow jobs at shutdown time *)
  let pool = Parallel.create ~workers:2 ~ring_capacity:128 () in
  Parallel.start pool;
  let ran = Atomic.make 0 in
  let n = 200 in
  for _ = 1 to n do
    while
      not
        (Parallel.submit pool (fun ~wid:_ ->
             for _ = 1 to 50 do
               Sys.opaque_identity ignore ()
             done;
             Atomic.incr ran))
    do
      nap ()
    done
  done;
  let stats = Parallel.shutdown pool in
  check Alcotest.int "no job lost" n (Atomic.get ran);
  check Alcotest.int "stats agree" n stats.Parallel.completed

(* appended to the runtime suite *)
let pool_suite =
  [
    Alcotest.test_case "parallel handle lifecycle" `Quick test_parallel_handle_lifecycle;
    Alcotest.test_case "parallel shutdown fence" `Quick test_parallel_submit_after_shutdown;
    Alcotest.test_case "parallel pick" `Quick test_parallel_pick_least_loaded;
    Alcotest.test_case "parallel zero-loss shutdown" `Quick test_parallel_shutdown_drains_backlog;
  ]

let suite = suite @ pool_suite

(* --- Stall attribution: the gc_pause_ns hook --- *)

(* A 1ns stall threshold turns every non-zero inter-quantum gap into a
   "stall", so a single multi-quantum task (tiny quantum, a probe per
   iteration) manufactures hundreds of them without sleeping.  The gap
   sizes are scheduling noise; the *attribution* is deterministic given
   the injected GC clock: a clock that leaps every read makes every gap
   look GC-caused, a frozen clock makes none of them, and no clock at
   all leaves them unknown. *)
let stall_counts gc_pause_ns =
  let regs = [| Tq_obs.Counters.create () |] in
  let pool =
    Parallel.create ~workers:1 ~quantum_ns:100 ~stall_threshold_ns:1
      ~worker_counters:regs ?gc_pause_ns ()
  in
  Parallel.start pool;
  while
    not
      (Parallel.submit pool (fun ~wid:_ ->
           for _ = 1 to 400 do
             for _ = 1 to 200 do
               Sys.opaque_identity ignore ()
             done;
             Probe_api.probe ()
           done))
  do
    nap ()
  done;
  ignore (Parallel.shutdown pool);
  let count name = Tq_obs.Counters.find_count regs.(0) name in
  ( count "runtime.stalls",
    count "runtime.stall_gc",
    count "runtime.stall_other",
    count "runtime.stall_unknown" )

let test_stall_attribution_gc () =
  (* the fake GC clock leaps 1ms on every read: any gap looks GC-eaten *)
  let fake = ref 0 in
  let stalls, gc, other, unknown =
    stall_counts
      (Some
         (fun () ->
           fake := !fake + 1_000_000;
           !fake))
  in
  check Alcotest.bool "some stalls detected at a 1ns threshold" true (stalls > 0);
  check Alcotest.int "every stall attributed to gc" stalls gc;
  check Alcotest.int "none attributed elsewhere" 0 (other + unknown)

let test_stall_attribution_other () =
  (* a frozen GC clock: the runtime visibly did not eat the core *)
  let stalls, gc, other, unknown = stall_counts (Some (fun () -> 0)) in
  check Alcotest.bool "some stalls detected" true (stalls > 0);
  check Alcotest.int "every stall attributed to other" stalls other;
  check Alcotest.int "none attributed to gc" 0 (gc + unknown)

let test_stall_attribution_unknown () =
  (* no hook wired: the classifier must not guess *)
  let stalls, gc, other, unknown = stall_counts None in
  check Alcotest.bool "some stalls detected" true (stalls > 0);
  check Alcotest.int "every stall unknown" stalls unknown;
  check Alcotest.int "nothing attributed" 0 (gc + other)

let stall_suite =
  [
    Alcotest.test_case "stall attribution gc" `Quick test_stall_attribution_gc;
    Alcotest.test_case "stall attribution other" `Quick test_stall_attribution_other;
    Alcotest.test_case "stall attribution unknown" `Quick test_stall_attribution_unknown;
  ]

(* --- Placement is execution: no job leaves the worker it was given --- *)

(* A skewed backlog on worker 0 while worker 1 sits idle: every job
   must still run on worker 0 and receive its id, and the per-worker
   accounting must match placement exactly. *)
let test_parallel_runs_where_placed () =
  let pool = Parallel.create ~workers:2 ~ring_capacity:64 () in
  Parallel.start pool;
  let n = 48 in
  let misplaced = Atomic.make 0 in
  for _ = 1 to n do
    while
      not
        (Parallel.submit_to pool ~worker:0 (fun ~wid ->
             for _ = 1 to 20_000 do
               Sys.opaque_identity ignore ()
             done;
             if wid <> 0 then Atomic.incr misplaced))
    do
      nap ()
    done
  done;
  let stats = Parallel.shutdown pool in
  check Alcotest.int "every job ran on its worker" 0 (Atomic.get misplaced);
  check Alcotest.(array int) "per-worker accounting follows placement" [| n; 0 |]
    stats.Parallel.per_worker_finished

(* A death verdict is reversible: [revive] restores the worker to JSQ
   and to the in-flight count, so work it still holds drains normally. *)
let test_parallel_revive () =
  let pool = Parallel.create ~workers:2 () in
  Parallel.start pool;
  let release = Atomic.make false in
  assert (
    Parallel.submit_to pool ~worker:1 (fun ~wid:_ ->
        while not (Atomic.get release) do
          Domain.cpu_relax ()
        done));
  while Parallel.worker_in_flight pool ~worker:1 = 0 do
    nap ()
  done;
  check Alcotest.int "verdict reports the held job" 1 (Parallel.mark_dead pool ~worker:1);
  check Alcotest.int "second verdict is a no-op" 0 (Parallel.mark_dead pool ~worker:1);
  check Alcotest.int "dead worker out of the census" 1 (Parallel.alive_workers pool);
  check Alcotest.int "dead worker out of in-flight" 0 (Parallel.in_flight pool);
  check Alcotest.int "JSQ skips the dead" 0 (Parallel.pick pool);
  Parallel.revive pool ~worker:1;
  check Alcotest.bool "alive again" true (Parallel.worker_alive pool ~worker:1);
  check Alcotest.int "back in the census" 2 (Parallel.alive_workers pool);
  check Alcotest.int "its job counts again" 1 (Parallel.in_flight pool);
  Atomic.set release true;
  let stats = Parallel.shutdown pool in
  check Alcotest.int "held job completed" 1 stats.Parallel.per_worker_finished.(1)

(* Equal loads go to the worker whose current task has serviced more
   quanta.  Quantum 1 ns: worker 1's task yields at every probe, while
   worker 0's task never probes and so finishes no quantum. *)
let test_parallel_pick_msq_tie () =
  let pool = Parallel.create ~workers:2 ~quantum_ns:1 () in
  Parallel.start pool;
  let release = Atomic.make false in
  assert (
    Parallel.submit_to pool ~worker:1 (fun ~wid:_ ->
        while not (Atomic.get release) do
          Probe_api.probe ()
        done));
  while (Parallel.stats pool).Parallel.yields < 5 do
    nap ()
  done;
  assert (
    Parallel.submit_to pool ~worker:0 (fun ~wid:_ ->
        while not (Atomic.get release) do
          Domain.cpu_relax ()
        done));
  check Alcotest.(pair int int) "equal loads" (1, 1)
    (Parallel.worker_in_flight pool ~worker:0, Parallel.worker_in_flight pool ~worker:1);
  check Alcotest.int "the tie goes to the most serviced quanta" 1 (Parallel.pick pool);
  Atomic.set release true;
  ignore (Parallel.shutdown pool)

(* [Server.dispatch] calls [pick] once per request. *)
let test_parallel_pick_allocation_free () =
  let pool = Parallel.create ~workers:8 () in
  check (Alcotest.float 0.0) "minor words per pick over 8 workers" 0.0
    (Test_util.minor_words_per_call (fun () -> ignore (Parallel.pick pool : int)))

let placement_suite =
  [
    Alcotest.test_case "parallel runs where placed" `Quick
      test_parallel_runs_where_placed;
    Alcotest.test_case "parallel revive" `Quick test_parallel_revive;
    Alcotest.test_case "parallel pick msq tie" `Quick test_parallel_pick_msq_tie;
    Alcotest.test_case "parallel pick allocation-free" `Quick
      test_parallel_pick_allocation_free;
  ]

(* --- Quanta on the real clock --- *)

(* One probe-dense task under a 2 us quantum on the real clock: the
   median forced slice must end within [overhead_ns] of the quantum.  A
   slice overruns by one probe interval plus the yield and the clock
   reads around it (about 0.3 us measured on a 2-core x86 VM).  The
   median keeps a descheduled slice or two from failing it. *)
let test_quantum_honoured_on_real_clock () =
  let quantum_ns = 2_000 and overhead_ns = 500 in
  let lens = ref [] in
  let w =
    Task_worker.create ~clock:(Clock.wall ()) ~quantum_ns
      ~on_quantum:(fun ~task_id:_ ~start_ns ~end_ns ~finished ->
        if not finished then lens := (end_ns - start_ns) :: !lens)
      ~on_finish:ignore ()
  in
  let x = ref 1 in
  Task_worker.submit w
    {
      Task_worker.task_id = 0;
      class_idx = 0;
      work =
        (fun ~wid:_ ->
          for _ = 1 to 40_000 do
            for _ = 1 to 32 do
              x := (!x * 48271) land 0x3FFFFFFF
            done;
            Probe_api.probe ()
          done);
    };
  Task_worker.run_until_idle w;
  ignore (Sys.opaque_identity !x);
  let lens = Array.of_list !lens in
  Array.sort compare lens;
  let n = Array.length lens in
  check Alcotest.bool (Printf.sprintf "%d forced slices" n) true (n >= 100);
  let pct p = lens.(n * p / 100) in
  check Alcotest.bool
    (Printf.sprintf "median slice %d ns <= %d + %d ns (p10 %d, p90 %d)" (pct 50) quantum_ns
       overhead_ns (pct 10) (pct 90))
    true
    (pct 50 <= quantum_ns + overhead_ns)

let clock_suite =
  [
    Alcotest.test_case "quantum honoured on the real clock" `Quick
      test_quantum_honoured_on_real_clock;
  ]

let suite =
  suite @ stall_suite @ placement_suite @ clock_suite
  @ [ Alcotest.test_case "worker residency" `Quick test_worker_residency ]

(* --- Park and wake: no lost wake-up --- *)

(* Spin (freeing the core now and then) until [cond] holds or
   [seconds] pass; true when it held. *)
let wait_for ?(seconds = 5.0) cond =
  let deadline = Time_unit.now_ns () + Time_unit.s seconds in
  let rec go spins =
    if cond () then true
    else if Time_unit.now_ns () > deadline then false
    else begin
      if spins land 63 = 63 then Thread.yield () else Domain.cpu_relax ();
      go (spins + 1)
    end
  in
  go 0

(* Two domains, the test's and one worker's.  Before each push the
   producer waits until the worker has raised its sleeping flag, so
   every push races the worker's last look at its ring: the window a
   lost wake-up would need.  Each task must finish within the bound;
   a lost wake-up leaves it on the ring forever. *)
let park_bound_s = 1.0

let test_park_stress () =
  let pool = Parallel.create ~workers:1 () in
  Parallel.start pool;
  let done_ = Atomic.make 0 in
  let n = 10_000 in
  let slowest = ref 0 in
  for i = 1 to n do
    if not (wait_for (fun () -> Parallel.parked pool ~worker:0)) then
      Alcotest.failf "task %d: the worker never parked" i;
    let t0 = Time_unit.now_ns () in
    assert (Parallel.submit_to pool ~worker:0 (fun ~wid:_ -> Atomic.incr done_));
    if not (wait_for ~seconds:park_bound_s (fun () -> Atomic.get done_ = i)) then
      Alcotest.failf "task %d not run within %.1f s of its push: a lost wake-up" i
        park_bound_s;
    slowest := max !slowest (Time_unit.now_ns () - t0)
  done;
  let stats = Parallel.shutdown pool in
  check Alcotest.int "every task ran" n stats.Parallel.completed;
  check Alcotest.bool
    (Printf.sprintf "slowest push-to-finish %.3f ms within the bound"
       (float_of_int !slowest /. 1e6))
    true
    (!slowest < Time_unit.s park_bound_s)

(* Every fault hook reaches a parked worker, and [shutdown] returns
   with parked, stalled and killed workers in the pool. *)
let test_park_faults () =
  let pool = Parallel.create ~workers:3 () in
  Parallel.start pool;
  let all_parked () =
    Parallel.parked pool ~worker:0 && Parallel.parked pool ~worker:1
    && Parallel.parked pool ~worker:2
  in
  check Alcotest.bool "every idle worker parks" true (wait_for all_parked);
  let beats w = Parallel.beats pool ~worker:w in
  let b0 = beats 0 and b1 = beats 1 in
  Parallel.kill_worker pool ~worker:0;
  check Alcotest.bool "a kill wakes the parked worker, which exits" true
    (wait_for (fun () -> beats 0 > b0 && not (Parallel.parked pool ~worker:0)));
  Parallel.stall_worker pool ~worker:1 ~duration_ns:20_000_000;
  check Alcotest.bool "a stall wakes the parked worker" true
    (wait_for (fun () -> beats 1 > b1));
  check Alcotest.bool "after the stall it parks again" true
    (wait_for (fun () -> Parallel.parked pool ~worker:1));
  let ran = Atomic.make false in
  assert (Parallel.submit_to pool ~worker:1 (fun ~wid:_ -> Atomic.set ran true));
  check Alcotest.bool "and serves the next push" true (wait_for (fun () -> Atomic.get ran));
  Parallel.stall_worker pool ~worker:2 ~duration_ns:50_000_000;
  let returned = Atomic.make false in
  let th =
    Thread.create
      (fun () ->
        ignore (Parallel.shutdown pool : Parallel.stats);
        Atomic.set returned true)
      ()
  in
  check Alcotest.bool "shutdown returns with a killed, a parked and a stalled worker" true
    (wait_for ~seconds:10.0 (fun () -> Atomic.get returned));
  Thread.join th

(* [stall_worker] stamps the stall's end on the clock the worker spins
   on.  A 2 ms stall of a parked worker holds the core for at least
   2 ms and then ends: a task pushed right behind it finishes within
   [park_bound_s].  A deadline stamped on any other clock would end the
   stall at once or never. *)
let test_park_stall_ends () =
  let pool = Parallel.create ~workers:1 () in
  Parallel.start pool;
  check Alcotest.bool "the idle worker parks" true
    (wait_for (fun () -> Parallel.parked pool ~worker:0));
  let stall_ns = 2_000_000 in
  let t0 = Time_unit.now_ns () in
  Parallel.stall_worker pool ~worker:0 ~duration_ns:stall_ns;
  let ran_at = Atomic.make 0 in
  assert (
    Parallel.submit_to pool ~worker:0 (fun ~wid:_ -> Atomic.set ran_at (Time_unit.now_ns ())));
  if not (wait_for ~seconds:park_bound_s (fun () -> Atomic.get ran_at > 0)) then
    Alcotest.failf "the task behind a 2 ms stall did not run within %.1f s" park_bound_s;
  check Alcotest.bool
    (Printf.sprintf "the stall held the core (task ran %d ns after it)" (Atomic.get ran_at - t0))
    true
    (Atomic.get ran_at - t0 >= stall_ns);
  ignore (Parallel.shutdown pool : Parallel.stats)

(* [drain] parks until the last finish wakes it. *)
let test_park_drain () =
  let pool = Parallel.create ~workers:2 () in
  Parallel.start pool;
  let release = Atomic.make false in
  for w = 0 to 1 do
    assert (
      Parallel.submit_to pool ~worker:w (fun ~wid:_ ->
          while not (Atomic.get release) do
            Domain.cpu_relax ()
          done))
  done;
  let drained = Atomic.make false in
  let th =
    Thread.create
      (fun () ->
        Parallel.drain pool;
        Atomic.set drained true)
      ()
  in
  Unix.sleepf 0.01;
  check Alcotest.bool "drain waits while jobs run" false (Atomic.get drained);
  Atomic.set release true;
  check Alcotest.bool "the last finish wakes the drain" true
    (wait_for (fun () -> Atomic.get drained));
  Thread.join th;
  ignore (Parallel.shutdown pool : Parallel.stats)

(* Its own suite, so CI can run it many times in a row by name. *)
let park_suite =
  [
    Alcotest.test_case "lost wake-up stress" `Quick test_park_stress;
    Alcotest.test_case "parked worker: kill, stall, stop" `Quick test_park_faults;
    Alcotest.test_case "drain wakes on finish" `Quick test_park_drain;
    Alcotest.test_case "stalled worker resumes" `Quick test_park_stall_ends;
  ]
