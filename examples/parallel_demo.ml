(* Real multicore forced multitasking.

   Spawns worker domains connected to a JSQ dispatcher by lock-free SPSC
   rings and runs a bimodal batch of jobs with real-time quanta — the
   paper's architecture on actual parallel hardware (with the GC-pause
   caveat from DESIGN.md).

     dune exec examples/parallel_demo.exe *)

module Time_unit = Tq_util.Time_unit

let busy_work ~ms () =
  (* CPU-bound loop with probes at loop granularity. *)
  let deadline = Time_unit.now_ns () + Time_unit.ms ms in
  let acc = ref 0 in
  while Time_unit.now_ns () < deadline do
    for _ = 1 to 64 do
      acc := (!acc * 31) + 7
    done;
    Tq_runtime.Probe_api.probe ()
  done;
  ignore (Sys.opaque_identity !acc)

let () =
  let workers = max 2 (min 4 (Domain.recommended_domain_count () - 1)) in
  (* 95% short jobs (1ms) and 5% long jobs (20ms), 1ms quanta. *)
  let jobs =
    Array.init 60 (fun i ->
        if i mod 20 = 0 then busy_work ~ms:20.0 else busy_work ~ms:1.0)
  in
  let started = Time_unit.now_ns () in
  let pool = Tq_runtime.Parallel.create ~workers ~quantum_ns:1_000_000 () in
  Tq_runtime.Parallel.start pool;
  Array.iter
    (fun job ->
      while not (Tq_runtime.Parallel.submit pool (fun ~wid:_ -> job ())) do
        Domain.cpu_relax ()
      done)
    jobs;
  let stats = Tq_runtime.Parallel.shutdown pool in
  let elapsed = Time_unit.to_s (Time_unit.now_ns () - started) in
  Printf.printf "ran %d jobs on %d worker domains in %.2fs\n" stats.completed workers elapsed;
  Printf.printf "preemptive yields: %d (long jobs preempted at ~1ms quanta)\n" stats.yields;
  Array.iteri
    (fun i c -> Printf.printf "  worker %d finished %d jobs\n" i c)
    stats.per_worker_finished
