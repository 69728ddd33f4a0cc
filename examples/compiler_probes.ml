(* Forced multitasking's compiler side, end to end.

   Takes the ~2us RocksDB GET program, instruments it with the CI
   baseline and with TQ's bounded-path physical-clock pass, and executes
   all three versions in the cycle-accurate VM — reproducing the
   Section 3.1 numbers: CI needs an order of magnitude more probes and
   inflates the job, TQ places a handful of probes with tighter yield
   timing.

     dune exec examples/compiler_probes.exe *)

open Tq_instrument

let describe name prog quantum =
  let config = { Vm.default_config with quantum_cycles = quantum; seed = 11L } in
  let r = Vm.run config prog in
  Printf.printf "%-14s %8d cycles  %6d dynamic probes  %5d static  %3d yields\n" name
    r.Vm.total_cycles r.Vm.probe_executions
    (Tq_ir.Cfg.program_probe_count prog)
    r.Vm.yields

let () =
  let named = Bench_programs.rocksdb_get in
  let base = Bench_programs.lowered named in
  let ci = Ci_pass.instrument base in
  let tq = Tq_pass.instrument base in
  let quantum = Tq_util.Time_unit.ns_to_cycles 2_000 in

  Printf.printf "RocksDB GET (~2us job), 2us quantum at 2.1 GHz:\n\n";
  describe "uninstrumented" base max_int;
  describe "CI" ci quantum;
  describe "TQ" tq quantum;

  let row = Evaluate.evaluate named in
  Printf.printf "\nprobing overhead: CI %.1f%%  CI-Cycles %.1f%%  TQ %.1f%%\n"
    row.Evaluate.ci_overhead_pct row.Evaluate.ci_cycles_overhead_pct
    row.Evaluate.tq_overhead_pct;

  (* Yield-timing accuracy on the long SCAN, where quanta matter. *)
  let scan = Evaluate.evaluate Bench_programs.rocksdb_scan in
  Printf.printf "SCAN yield-timing MAE: CI %.0fns  CI-Cycles %.0fns  TQ %.0fns\n"
    scan.Evaluate.ci_mae_ns scan.Evaluate.ci_cycles_mae_ns scan.Evaluate.tq_mae_ns;

  Printf.printf "\nTQ probe placement for the GET (dump via: tq_sim probe-place rocksdb-get):\n";
  Printf.printf "  %d probes vs CI's %d — the paper reports 40 vs 1000+ on real RocksDB.\n"
    (Tq_ir.Cfg.program_probe_count tq)
    (Tq_ir.Cfg.program_probe_count ci)
