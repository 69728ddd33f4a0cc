(* TPC-C under blind scheduling.

   Runs the five-transaction OLTP mix (Table 1 ratios) through the DES:
   TQ vs Shinjuku vs Caladan at increasing load, reporting the tail
   slowdown of the short Payment transactions — then executes real
   transactions against the in-memory database on one fiber-runtime
   worker over a virtual clock.

     dune exec examples/tpcc_app.exe *)

module Metrics = Tq_workload.Metrics
module Transactions = Tq_tpcc.Transactions

let simulated_comparison () =
  let workload = Tq_workload.Table1.tpcc in
  let capacity = Tq_workload.Arrivals.capacity_rps ~cores:16 workload in
  Printf.printf "TPC-C mix, 16 cores, capacity %.0f krps\n\n" (capacity /. 1e3);
  Printf.printf "%-10s %14s %14s %14s\n" "load" "TQ" "Shinjuku" "Caladan";
  List.iter
    (fun frac ->
      let rate_rps = frac *. capacity in
      let duration_ns = Tq_util.Time_unit.ms 40.0 in
      let tail system =
        let r = Tq_sched.Experiment.run ~system ~workload ~rate_rps ~duration_ns () in
        Metrics.slowdown_percentile r.metrics ~class_idx:0 99.9
      in
      Printf.printf "%-10s %14.1f %14.1f %14.1f\n"
        (Printf.sprintf "%.0f%%" (100.0 *. frac))
        (tail (Tq_sched.Presets.tq ()))
        (tail (Tq_sched.Presets.shinjuku ~quantum_ns:10_000 ()))
        (tail (Tq_sched.Presets.caladan ~mode:Tq_sched.Caladan.Directpath ())))
    [ 0.3; 0.5; 0.7; 0.85 ];
  Printf.printf "\n(payment p99.9 slowdown; preemptive tiny quanta keep it flat)\n\n"

let live_database () =
  let db = Tq_tpcc.Schema.create () in
  let rng = Tq_util.Prng.create ~seed:2024L in
  let clock = Tq_runtime.Clock.virtual_ () in
  let worker =
    Tq_runtime.Task_worker.create ~clock ~quantum_ns:2_000 ~on_finish:ignore ()
  in
  let counts = Hashtbl.create 5 in
  for task_id = 1 to 2_000 do
    let kind = Transactions.sample_kind rng in
    Hashtbl.replace counts kind (1 + Option.value ~default:0 (Hashtbl.find_opt counts kind));
    Tq_runtime.Task_worker.submit worker
      {
        Tq_runtime.Task_worker.task_id;
        class_idx = 0;
        work =
          (fun ~wid:_ ->
            ignore (Transactions.run db rng kind);
            (* Credit the Table 1 service time so quanta preempt long
               Delivery/StockLevel transactions. *)
            Virtual_work.work clock (Transactions.service_time_ns kind));
      }
  done;
  Tq_runtime.Task_worker.run_until_idle worker;
  Printf.printf "executed %d transactions on the fiber runtime (%d yields):\n"
    (Tq_runtime.Task_worker.finished_count worker)
    (Tq_runtime.Task_worker.total_yields worker);
  Hashtbl.iter
    (fun kind count -> Printf.printf "  %-12s %5d\n" (Transactions.kind_name kind) count)
    counts;
  let w0 = (Tq_tpcc.Schema.w_ytd db).(Tq_tpcc.Schema.warehouse_index db ~w:0) in
  Printf.printf "warehouse 0 YTD: $%.2f\n" (float_of_int w0 /. 100.0)

let () =
  simulated_comparison ();
  live_database ()
