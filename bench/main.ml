(* Micro-benchmarks of this library's primitives, and three host-timed
   runs that check themselves.

     dune exec bench/main.exe                       Bechamel table: ns and minor words per run
     dune exec bench/main.exe -- --serve-bench      loopback serve run, checked against the ledger
     dune exec bench/main.exe -- --tail-bench       loopback serve, tail reservoir off vs k=16
     dune exec bench/main.exe -- --parallel-bench   every figure point at jobs=1 vs jobs=max

   Each mode prints its report, then one line per failed check, and
   exits 1 if any check failed.  The thresholds are written below next
   to what they check.  Allocation is not gated here: Gc.minor_words
   tests in dune runtest check it exactly.  The repository's benchmark
   (trials, spread, per-layer metrics) is tqbench/.

   --parallel-bench scales its simulated durations with TQ_BENCH_SCALE
   (default 1.0). *)

let hr () = print_endline (String.make 78 '=')

(* Failed checks, reported after the mode's report. *)
let failures = ref []

let check ok fmt =
  Printf.ksprintf (fun msg -> if not ok then failures := msg :: !failures) fmt

let finish () =
  List.iter (fun msg -> Printf.printf "FAIL: %s\n" msg) (List.rev !failures);
  if !failures <> [] then exit 1;
  print_endline "all checks passed"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

open Bechamel
open Toolkit

(* The event-queue rows hold [pending] entries, the size [sim_des]
   runs at; each run pushes one entry a varied delay past the head and
   pops the head, so every run inserts into a real queue. *)
let pending = 16
let delay n = 1 + (n * 7919 land 1023)

let test_queue () =
  let module Queue = Tq_util.Event_queue in
  let queue = Queue.create () in
  for n = 1 to pending do
    Queue.push queue ~key:(delay n) n
  done;
  let n = ref pending in
  Test.make ~name:"event_queue push+pop"
    (Staged.stage (fun () ->
         incr n;
         Queue.push queue ~key:(Queue.top_key queue + delay !n) !n;
         ignore (Queue.top_key queue + Queue.pop queue)))

let test_prng () =
  let rng = Tq_util.Prng.create ~seed:1L in
  Test.make ~name:"prng bits64" (Staged.stage (fun () -> ignore (Tq_util.Prng.bits64 rng)))

let test_sim_event () =
  let sim = Tq_engine.Sim.create () in
  for n = 1 to pending do
    ignore (Tq_engine.Sim.schedule_after sim ~delay:(delay n) ignore)
  done;
  let n = ref pending in
  Test.make ~name:"sim schedule+run event"
    (Staged.stage (fun () ->
         incr n;
         ignore (Tq_engine.Sim.schedule_after sim ~delay:(delay !n) ignore);
         ignore (Tq_engine.Sim.step sim)))

(* The same steady state through a registered action that re-posts
   itself: the path the simulated systems' hot events take. *)
let test_sim_action () =
  let sim = Tq_engine.Sim.create () in
  let n = ref 0 in
  let again = ref Tq_engine.Sim.no_action in
  again :=
    Tq_engine.Sim.action sim (fun () ->
        incr n;
        Tq_engine.Sim.post sim ~delay:(delay !n) !again);
  for i = 1 to pending do
    Tq_engine.Sim.post sim ~delay:(delay i) !again
  done;
  Test.make ~name:"sim post+run action"
    (Staged.stage (fun () -> ignore (Tq_engine.Sim.step sim)))

let test_fiber () =
  Test.make ~name:"fiber create+yield+finish"
    (Staged.stage (fun () ->
         let f = Tq_runtime.Fiber.create (fun () -> Tq_runtime.Fiber.yield ()) in
         ignore (Tq_runtime.Fiber.resume f);
         ignore (Tq_runtime.Fiber.resume f)))

let test_probe () =
  (* Probe check without yielding: the steady-state cost of a compiled
     probe site (paper: RDTSC + compare). *)
  let ctx =
    Tq_runtime.Probe_api.create ~clock:(Tq_runtime.Clock.virtual_ ()) ~quantum_ns:max_int
  in
  Tq_runtime.Probe_api.install ctx;
  Test.make ~name:"probe check (not expired)"
    (Staged.stage (fun () -> Tq_runtime.Probe_api.probe ()))

let test_spsc () =
  let ring = Tq_runtime.Spsc_ring.create ~capacity:64 in
  Test.make ~name:"spsc_ring push+pop"
    (Staged.stage (fun () ->
         ignore (Tq_runtime.Spsc_ring.try_push ring 1);
         ignore (Tq_runtime.Spsc_ring.try_pop ring)))

(* Set-up, on the per-primitive axis: one worker's app (its KV prefill
   and TPC-C load) and one reply ring, each built from scratch. *)
let test_app_create () =
  Test.make ~name:"app create (1024 keys)"
    (Staged.stage (fun () -> ignore (Tq_serve.App.create ~kv_keys:1024 ~seed:1L ())))

let test_spsc_create () =
  Test.make ~name:"spsc_ring create (1024)"
    (Staged.stage (fun () ->
         ignore (Tq_runtime.Spsc_ring.create ~capacity:1024 : int Tq_runtime.Spsc_ring.t)))

let test_skiplist () =
  let sl = Tq_kv.Skiplist.create () in
  for i = 0 to 9_999 do
    Tq_kv.Skiplist.insert sl (Printf.sprintf "key%08d" i) i
  done;
  let i = ref 0 in
  Test.make ~name:"skiplist find (10k keys)"
    (Staged.stage (fun () ->
         i := (!i + 7_919) mod 10_000;
         ignore (Tq_kv.Skiplist.find sl (Printf.sprintf "key%08d" !i))))

let test_cache () =
  let cache = Tq_cache.Cache.create ~size_bytes:32_768 ~ways:8 () in
  let addr = ref 0 in
  Test.make ~name:"cache access (L1 geometry)"
    (Staged.stage (fun () ->
         addr := (!addr + 4_096) land 0xFFFFF;
         ignore (Tq_cache.Cache.access cache !addr)))

let test_deque () =
  let dq = Tq_util.Ring_deque.create () in
  Test.make ~name:"ring_deque push_back+pop_front"
    (Staged.stage (fun () ->
         Tq_util.Ring_deque.push_back dq 1;
         ignore (Tq_util.Ring_deque.pop_front dq : int)))

let test_backoff () =
  let config = Tq_workload.Retry.default_config in
  let retry = ref 0 in
  Test.make ~name:"retry backoff schedule"
    (Staged.stage (fun () ->
         retry := (!retry mod 63) + 1;
         ignore (Tq_workload.Retry.backoff_ns config ~retry:!retry)))

let test_serve_codec () =
  (* One full wire round trip of the serving layer — encode, stream
     reassembly, decode — i.e. the per-request protocol tax tq_serve's
     dispatcher pays on top of scheduling. *)
  let b = Buffer.create 64 in
  let rb = Tq_serve.Protocol.Reassembly.create () in
  let req = Tq_serve.Protocol.Echo { spin_ns = 1_000; payload = "0123456789abcdef" } in
  Test.make ~name:"serve codec encode+reassemble+decode"
    (Staged.stage (fun () ->
         Buffer.clear b;
         Tq_serve.Protocol.encode_request b ~req_id:7 req;
         let frame = Buffer.to_bytes b in
         Tq_serve.Protocol.Reassembly.add rb frame (Bytes.length frame);
         match Tq_serve.Protocol.Reassembly.next rb with
         | Ok (Some payload) -> ignore (Tq_serve.Protocol.decode_request payload)
         | _ -> assert false))

let test_admission () =
  (* The per-arrival cost of the overload gate on the dispatcher's hot
     path (the Queue_limit branch is the cheapest non-trivial one). *)
  let a = Tq_sched.Admission.create (Tq_sched.Admission.Queue_limit { max_in_system = 64 }) in
  let n = ref 0 in
  Test.make ~name:"admission admit (queue limit)"
    (Staged.stage (fun () ->
         incr n;
         ignore (Tq_sched.Admission.admit a ~in_system:(!n land 127))))

(* The live dispatcher's worker pick, once per request in
   [Server.dispatch]: a pool that is built but never started, so every
   worker reads idle and the whole scan runs. *)
let test_parallel_pick ~workers =
  let pool = Tq_runtime.Parallel.create ~workers () in
  Test.make
    ~name:(Printf.sprintf "parallel pick (%d workers)" workers)
    (Staged.stage (fun () -> ignore (Tq_runtime.Parallel.pick pool)))

(* The DES dispatcher's JSQ-MSQ choice at [sim_des]'s 16 cores, two of
   them marked dead. *)
let test_choose_masked () =
  let module Sched = Tq_sched in
  let sim = Tq_engine.Sim.create () in
  let workers =
    Array.init 16 (fun wid ->
        Sched.Worker.create sim ~wid ~rng:(Tq_util.Prng.create ~seed:1L)
          ~policy:Sched.Worker.Fcfs ~overheads:Sched.Overheads.zero ~on_finish:ignore ())
  in
  let alive = Array.init 16 (fun i -> i <> 3 && i <> 11) in
  let c =
    Sched.Dispatch_policy.(make_chooser Jsq_msq ~rng:(Tq_util.Prng.create ~seed:2L))
  in
  Test.make ~name:"des choose jsq-msq (16 cores, 2 dead)"
    (Staged.stage (fun () -> ignore (Sched.Dispatch_policy.choose c ~alive workers)))

(* What every request on the serve path pays for cross-domain spans;
   without --obs the server holds [null_sink]s. *)
let test_span ~name sink =
  let ts = ref 0 in
  Test.make ~name
    (Staged.stage (fun () ->
         incr ts;
         Tq_obs.Span.record sink ~req_id:!ts ~phase:Tq_obs.Span.Dispatch ~start_ns:!ts
           ~dur_ns:10 ~arg:0))

let live_span_sink () =
  Tq_obs.Span.register
    (Tq_obs.Span.create ~capacity_per_sink:4096 ())
    (Tq_obs.Span.Dispatcher 0)

(* The tail reservoir's offer on the dispatcher's reply pop.  Sojourn
   1 ns is far below a filled reservoir's floor, so an armed reservoir
   takes the common-case reject branch. *)
let stages = Array.make (List.length Tq_obs.Profile.stages) 0

let offer_tail tail ~seq ~sojourn_ns =
  Tq_obs.Tail.offer tail ~now_ns:1 ~seq ~class_idx:0 ~worker:0 ~sojourn_ns
    ~quantum_ns:100_000 ~cap:(-1) ~inject_depth:0 ~stages ~quanta:1 ~stalls:0
    ~gc_pause_ns:0

let test_tail_offer ~name tail =
  let seq = ref 0 in
  Test.make ~name
    (Staged.stage (fun () ->
         incr seq;
         offer_tail tail ~seq:!seq ~sojourn_ns:1))

let filled_tail () =
  let tail = Tq_obs.Tail.create ~k:16 () in
  for i = 1 to 16 do
    offer_tail tail ~seq:(-i) ~sojourn_ns:1_000_000
  done;
  tail

(* A realistic span stream for [Profile.of_records]: per request parse
   500 ns, dispatch 300, the hop, wait 400, two quanta with a 250 ns
   preemption gap, reply flush 600. *)
let decompose_requests = 10_000

let synthetic_stream n =
  let lane_d = Tq_obs.Span.Dispatcher 0 in
  let lane_w = Tq_obs.Span.Worker 0 in
  let mk req_id phase lane start_ns dur_ns =
    { Tq_obs.Span.req_id; phase; lane; start_ns; dur_ns; arg = 0 }
  in
  List.concat
    (List.init n (fun i ->
         let p0 = 100_000 * i in
         [
           mk i Tq_obs.Span.Parse lane_d p0 500;
           mk i Tq_obs.Span.Dispatch lane_d (p0 + 500) 300;
           mk i Tq_obs.Span.Ring_hop lane_w (p0 + 1_000) 0;
           mk i Tq_obs.Span.Quantum lane_w (p0 + 1_400) 5_000;
           mk i Tq_obs.Span.Quantum lane_w (p0 + 6_650) 3_000;
           mk i Tq_obs.Span.Reply_flush lane_d (p0 + 9_650) 600;
         ]))

let test_decompose stream =
  Test.make
    ~name:(Printf.sprintf "profile decompose (%d reqs)" decompose_requests)
    (Staged.stage (fun () -> ignore (Tq_obs.Profile.of_records stream)))

(* ns/run and minor-words/run OLS estimates for one test. *)
let measure_ns_words test =
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.3) ~stabilize:false ~kde:None ()
  in
  let instances = Instance.[ monotonic_clock; minor_allocated ] in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let results = Benchmark.all cfg instances test in
  let estimate instance =
    let analyzed = Analyze.all ols instance results in
    Hashtbl.fold
      (fun _ ols_result acc ->
        match Analyze.OLS.estimates ols_result with
        | Some [ v ] -> Some v
        | _ -> acc)
      analyzed None
  in
  (estimate Instance.monotonic_clock, estimate Instance.minor_allocated)

let run_microbenchmarks () =
  hr ();
  print_endline "Micro-benchmarks of library primitives (OLS fit per run)";
  hr ();
  let stream = synthetic_stream decompose_requests in
  (* Ceilings on the rows that sit on a request's path or in the stats
     views: ten times each row's last recorded value (span record 22.8
     and 4.1 ns, tail offer 7.1 and 8.7 ns, decompose 1539 ns per
     request).  They catch an order-of-magnitude slip on any host; a
     faster run always passes. *)
  let rows =
    [
      (test_queue (), None);
      (test_prng (), None);
      (test_sim_event (), None);
      (test_sim_action (), None);
      (test_fiber (), None);
      (test_probe (), None);
      (test_spsc (), None);
      (test_spsc_create (), None);
      (test_app_create (), None);
      (test_skiplist (), None);
      (test_cache (), None);
      (test_deque (), None);
      (test_backoff (), None);
      (test_serve_codec (), None);
      (test_admission (), None);
      (test_parallel_pick ~workers:2, None);
      (test_parallel_pick ~workers:8, None);
      (test_parallel_pick ~workers:32, None);
      (test_choose_masked (), None);
      (test_span ~name:"span record (enabled)" (live_span_sink ()), Some 228.4);
      (test_span ~name:"span record (disabled)" Tq_obs.Span.null_sink, Some 41.2);
      (test_tail_offer ~name:"tail offer (enabled, reject)" (filled_tail ()), Some 87.1);
      (test_tail_offer ~name:"tail offer (disabled)" Tq_obs.Tail.null, Some 70.9);
      (test_decompose stream, Some (15_386.0 *. float_of_int decompose_requests));
    ]
  in
  let pp = function Some v -> Printf.sprintf "%12.2f" v | None -> "         n/a" in
  Printf.printf "%-38s %12s %12s %12s\n" "" "ns/run" "words/run" "ceiling ns";
  List.iter
    (fun (test, ceiling) ->
      let name = Test.Elt.name (List.hd (Test.elements test)) in
      let ns, words = measure_ns_words test in
      Printf.printf "%-38s %s %s %s\n%!" name (pp ns) (pp words) (pp ceiling);
      Option.iter
        (fun ceiling ->
          match ns with
          | Some ns -> check (ns <= ceiling) "%s: %.2f ns/run > %.2f ceiling" name ns ceiling
          | None -> check false "%s: no estimate to hold to its ceiling" name)
        ceiling)
    rows;
  (* The stream must decompose exactly, or the decompose row timed the
     degraded path. *)
  let p = Tq_obs.Profile.of_records stream in
  check
    (Tq_obs.Profile.requests p = decompose_requests
    && Tq_obs.Profile.invariant_ok p
    && Tq_obs.Profile.exact_fraction p = 1.0)
    "synthetic stream: %d requests, exact fraction %g (want %d, 1)"
    (Tq_obs.Profile.requests p) (Tq_obs.Profile.exact_fraction p) decompose_requests

(* ------------------------------------------------------------------ *)
(* Loopback serve runs                                                 *)
(* ------------------------------------------------------------------ *)

let serve_workers = 2

(* One in-process loopback run: a real Server (its lane on a helper
   thread) under the open-loop Load_gen, checked against the ledger's
   identities. *)
let serve_once ~label ~rate_rps ?spans ?tail () =
  let config =
    {
      Tq_serve.Server.default_config with
      port = 0;
      workers = serve_workers;
      rx_depth = 2048;
      kv_keys = 1024;
    }
  in
  let srv = Tq_serve.Server.create ?spans ?tail config in
  let th = Thread.create (fun () -> Tq_serve.Server.serve srv) () in
  let lcfg = Tq_serve.Load_gen.default_config ~rate_rps ~port:(Tq_serve.Server.port srv) in
  let r = Tq_serve.Load_gen.run lcfg in
  let dossiers =
    if Option.is_some tail then Tq_serve.Server.outlier_dossiers srv ~limit:0 else []
  in
  Tq_serve.Server.stop srv;
  Thread.join th;
  let s = Tq_serve.Server.stats srv in
  List.iter (fun v -> check false "%s: %s" label v) (Tq_serve.Server.ledger_violations s);
  check (r.errors = 0) "%s: %d handler errors" label r.errors;
  let p q =
    float_of_int (Tq_obs.Latency.percentile (Tq_obs.Latency.recorder r.latency "all") q)
    /. 1e3
  in
  Printf.printf
    "%s: %.0f rps, p50 %.0f us, p99 %.0f us, p99.9 %.0f us, generator lag p99 %.0f us \
     (%d ok, %d shed, %d errors)\n\
     %!"
    label r.throughput_rps (p 50.0) (p 99.0) (p 99.9) r.lag_p99_us r.ok r.shed r.errors;
  (lcfg, r, s, p 99.0, dossiers)

(* 150k offered rps saturates the dispatcher on a 2-core host: the run
   must still keep the ledger's identities, answer every request and
   serve at least a tenth of what was offered. *)
let run_serve_bench () =
  let rate_rps = 150_000.0 in
  hr ();
  Printf.printf "Loopback serve check (%d workers, %.0f offered rps)\n" serve_workers rate_rps;
  hr ();
  let label = "serve" in
  let lcfg, (r : Tq_serve.Load_gen.result), (s : Tq_serve.Server.stats), _, _ =
    serve_once ~label ~rate_rps ()
  in
  let offered = rate_rps *. (lcfg.warmup_s +. lcfg.measure_s) /. 10.0 in
  check (r.throughput_rps >= rate_rps /. 10.0) "%s: %.0f rps < a tenth of %.0f offered" label
    r.throughput_rps rate_rps;
  List.iter
    (fun (what, n) ->
      check (float_of_int n >= offered) "%s: %s %d < a tenth of the %.0f offered" label what
        n (offered *. 10.0))
    [ ("ok", r.ok); ("parsed", s.parsed); ("dispatched", s.dispatched);
      ("completed", s.completed) ];
  check (r.outstanding = 0) "%s: %d requests unanswered" label r.outstanding

(* The reservoir's marginal cost under the same offered load: tail
   sampling off vs k=16, on a traced server (spans on in both rows; a
   dossier's stages come from the reply, not from them).  70k rps keeps
   the two workers busy below their saturation cliff, where p99 is
   stable enough to hold to 5%. *)
let run_tail_bench () =
  let rate_rps = 70_000.0 and k = 16 in
  hr ();
  Printf.printf
    "Tail-forensics serve A/B (%d workers, %.0f offered rps, spans on in both rows, \
     reservoir off vs k=%d)\n"
    serve_workers rate_rps k;
  hr ();
  (* p99 of one loopback run is noisy: each row is the median of three. *)
  let median3 ~tail_on =
    let runs =
      List.init 3 (fun i ->
          let spans = Tq_obs.Span.create ~capacity_per_sink:(1 lsl 19) () in
          let tail = if tail_on then Tq_obs.Tail.create ~k () else Tq_obs.Tail.null in
          let label = Printf.sprintf "reservoir %s, run %d" (if tail_on then "on" else "off") i in
          let _, _, _, p99, dossiers = serve_once ~label ~rate_rps ~spans ~tail () in
          (p99, dossiers))
    in
    List.nth (List.sort (fun (a, _) (b, _) -> Float.compare a b) runs) 1
  in
  let p99_off, _ = median3 ~tail_on:false in
  let p99_on, dossiers = median3 ~tail_on:true in
  let penalty = if p99_off > 0.0 then (p99_on -. p99_off) /. p99_off else 0.0 in
  let retained = List.length dossiers in
  Printf.printf "p99 off %.0f us, on %.0f us (penalty %+.1f%%); %d dossiers retained\n"
    p99_off p99_on (100.0 *. penalty) retained;
  check (penalty <= 0.05) "arming the reservoir moved p99 by %+.1f%% (> 5%%)"
    (100.0 *. penalty);
  (* The loop keeps at most k per window, current and previous. *)
  check (retained >= 4 && retained <= 2 * k) "%d dossiers retained (want 4 to %d)" retained
    (2 * k);
  (* Every dossier telescopes: its stages sum to its sojourn exactly. *)
  List.iter
    (fun (e : Tq_obs.Tail.entry) ->
      let sum = Array.fold_left ( + ) 0 e.e_stages in
      check (sum = e.e_sojourn_ns) "dossier %d: stage sum %d <> sojourn %d" e.e_seq sum
        e.e_sojourn_ns)
    dossiers

(* ------------------------------------------------------------------ *)
(* Parallel sweep: jobs=1 vs jobs=max over every registry point        *)
(* ------------------------------------------------------------------ *)

let run_parallel_bench () =
  let experiments = Tq_experiments.Registry.all in
  let points = Tq_experiments.Registry.point_count in
  let time_run ~jobs =
    (* Cache disabled: both runs recompute every point.  Compact first
       so the second run does not pay for the first one's heap. *)
    Gc.compact ();
    let t0 = Tq_util.Time_unit.now_ns () in
    let _, stats =
      Tq_par.Sweep.run ~jobs ~cache:(Tq_par.Result_cache.disabled ()) experiments
    in
    let wall = Tq_util.Time_unit.(to_s (now_ns () - t0)) in
    let computed = Array.fold_left ( + ) 0 stats.pool.per_domain_tasks in
    Printf.printf "jobs=%d: %.1f s, %d points computed\n%!" jobs wall computed;
    check (computed = points) "jobs=%d computed %d of %d points" jobs computed points;
    wall
  in
  let jobs_max = Domain.recommended_domain_count () in
  hr ();
  Printf.printf "Parallel figure sweep (%d points, jobs=1 vs jobs=%d, TQ_BENCH_SCALE=%g)\n"
    points jobs_max Tq_experiments.Harness.scale;
  hr ();
  if jobs_max < 2 then check false "one core: jobs=max is jobs=1, no speedup to check"
  else begin
    let wall1 = time_run ~jobs:1 in
    let wallN = time_run ~jobs:jobs_max in
    let speedup = if wallN > 0.0 then wall1 /. wallN else 0.0 in
    Printf.printf "speedup %.2fx at jobs=%d\n" speedup jobs_max;
    check (speedup >= 1.5) "sweep speedup %.2fx < 1.5x at jobs=%d" speedup jobs_max
  end

let () =
  (match List.tl (Array.to_list Sys.argv) with
  | [] -> run_microbenchmarks ()
  | [ "--serve-bench" ] -> run_serve_bench ()
  | [ "--tail-bench" ] -> run_tail_bench ()
  | [ "--parallel-bench" ] -> run_parallel_bench ()
  | _ ->
      prerr_endline "usage: main.exe [--serve-bench | --tail-bench | --parallel-bench]";
      exit 2);
  finish ()
