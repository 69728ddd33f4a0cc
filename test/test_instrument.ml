(* Tests for tq_instrument: VM semantics, CI and TQ passes, Table 3
   evaluation machinery. *)

open Tq_ir
open Tq_instrument

let check = Alcotest.check

let prog_of ?(funcs = []) body =
  Lower.lower_program { Ast.src_funcs = ("main", body) :: funcs; src_main = "main" }

let run ?(quantum_cycles = max_int) ?(ci_check_clock = false) ?(seed = 3L) p =
  Vm.run { Vm.default_config with quantum_cycles; ci_check_clock; seed } p

(* --- VM semantics --- *)

let test_vm_straight_line_cycles () =
  let p = prog_of (Ast.work 10) in
  let r = run p in
  check Alcotest.int "10 alu = 10 cycles" 10 r.total_cycles;
  check Alcotest.int "10 instructions" 10 r.instructions;
  check Alcotest.int "no probes" 0 r.probe_executions

let test_vm_static_loop () =
  let p = prog_of (Ast.loop_n 5 (Ast.work 3)) in
  let r = run p in
  check Alcotest.int "5 x 3 alu" 15 r.total_cycles

let test_vm_nested_loops () =
  let p = prog_of (Ast.loop_n 4 (Ast.loop_n 6 (Ast.work 2))) in
  let r = run p in
  check Alcotest.int "4*6*2" 48 r.total_cycles

let test_vm_dynamic_loop_in_range () =
  let p = prog_of (Ast.loop_dyn ~lo:10 ~hi:20 (Ast.work 1)) in
  let r = run p in
  Alcotest.(check bool) "within range" true (r.total_cycles >= 10 && r.total_cycles <= 20)

let test_vm_branch_probabilities () =
  (* prob=1.0 must always take the then-branch. *)
  let p = prog_of (Ast.if_ ~prob:1.0 (Ast.work 7) (Ast.work 100)) in
  check Alcotest.int "then branch" 7 (run p).total_cycles;
  let p = prog_of (Ast.if_ ~prob:0.0 (Ast.work 100) (Ast.work 3)) in
  check Alcotest.int "else branch" 3 (run p).total_cycles

let test_vm_call_cost () =
  let p = prog_of ~funcs:[ ("h", Ast.work 5) ] (Ast.CallFn "h") in
  check Alcotest.int "call overhead + body" (Instr.Cost.call_overhead + 5) (run p).total_cycles

let test_vm_external_cost () =
  let p = prog_of (Ast.External { name = "syscall"; cycles = 250 }) in
  check Alcotest.int "external cycles" 250 (run p).total_cycles

let test_vm_div_cost () =
  let p = prog_of (Ast.mixed ~divs:2 ()) in
  check Alcotest.int "div cycles" (2 * Instr.Cost.div) (run p).total_cycles

let test_vm_deterministic () =
  let p = prog_of (Ast.loop_dyn ~lo:100 ~hi:500 (Ast.mixed ~alu:2 ~loads:2 ~miss_prob:0.3 ())) in
  let a = run ~seed:11L p and b = run ~seed:11L p in
  check Alcotest.int "same cycles" a.total_cycles b.total_cycles;
  let c = run ~seed:12L p in
  Alcotest.(check bool) "different seed differs" true (c.total_cycles <> a.total_cycles)

let test_vm_paired_control_flow () =
  (* Runs with and without instrumentation must see identical work. *)
  let p =
    prog_of
      (Ast.loop_dyn ~lo:500 ~hi:1500
         (Ast.if_ ~prob:0.4
            (Ast.mixed ~alu:3 ~loads:2 ~miss_prob:0.2 ())
            (Ast.mixed ~alu:1 ~loads:1 ~miss_prob:0.2 ())))
  in
  let base = run ~seed:5L p in
  let instr = run ~seed:5L (Tq_pass.instrument p) in
  check Alcotest.int "identical work cycles" base.work_cycles instr.work_cycles;
  check Alcotest.int "identical instructions" base.instructions instr.instructions

(* --- CI pass --- *)

let test_ci_probe_every_block () =
  let p = prog_of (Ast.if_ ~prob:0.5 (Ast.work 5) (Ast.work 3)) in
  let ci = Ci_pass.instrument p in
  let f = Cfg.func_of_program ci "main" in
  (* then and else have instructions; entry and join are empty -> 2. *)
  check Alcotest.int "two probes" 2 (Cfg.probe_count f)

let test_ci_counter_adds_match_blocks () =
  let p = prog_of (Ast.seq [ Ast.work 4; Ast.if_ ~prob:0.5 (Ast.work 2) (Ast.work 9) ]) in
  let ci = Ci_pass.instrument p in
  let f = Cfg.func_of_program ci "main" in
  Array.iter
    (fun (b : Cfg.block) ->
      let plain =
        List.fold_left (fun acc i -> acc + Instr.instruction_weight i) 0 b.instrs
      in
      List.iter
        (function
          | Instr.Probe (Instr.Counter_probe { add }) ->
              check Alcotest.int "add equals block count" plain add
          | _ -> ())
        b.instrs)
    f.blocks

let test_ci_yields_near_threshold () =
  (* 10k alu instructions, quantum 1000 cycles, cpi 2.8: CI yields every
     ~357 instructions = ~357 cycles of work (alu cpi is 1.0): far too
     early, exactly the translation inaccuracy the paper describes. *)
  let p = prog_of (Ast.loop_n 100 (Ast.work 100)) in
  let ci = Ci_pass.instrument p in
  let r = run ~quantum_cycles:1000 ci in
  Alcotest.(check bool) "yields happened" true (r.yields > 0);
  let mean_interval =
    float_of_int (List.fold_left ( + ) 0 r.yield_intervals)
    /. float_of_int (List.length r.yield_intervals)
  in
  Alcotest.(check bool)
    (Printf.sprintf "yields early at ~threshold (%f)" mean_interval)
    true
    (mean_interval < 700.0)

let test_ci_cycles_never_early () =
  let p = prog_of (Ast.loop_n 200 (Ast.work 100)) in
  let ci = Ci_pass.instrument p in
  let r = run ~quantum_cycles:1000 ~ci_check_clock:true ci in
  Alcotest.(check bool) "yields happened" true (r.yields > 0);
  List.iter
    (fun i -> Alcotest.(check bool) "never below quantum" true (i >= 1000))
    r.yield_intervals

(* --- TQ pass --- *)

let test_tq_straight_line_probe_spacing () =
  (* 2000 straight-line instructions with bound 400: needs ~4 probes. *)
  let p = prog_of (Ast.work 2000) in
  let tq = Tq_pass.instrument ~config:{ Tq_pass.bound = 400; non_reentrant = [] } p in
  let f = Cfg.func_of_program tq "main" in
  let probes = Cfg.probe_count f in
  Alcotest.(check bool) (Printf.sprintf "%d probes" probes) true (probes >= 4 && probes <= 6)

let test_tq_small_static_loop_unprobed () =
  (* Total work 10*5=50 <= bound: no instrumentation at all. *)
  let p = prog_of (Ast.loop_n 10 (Ast.work 5)) in
  let tq = Tq_pass.instrument ~config:{ Tq_pass.bound = 400; non_reentrant = [] } p in
  check Alcotest.int "no probes" 0 (Cfg.program_probe_count tq)

let test_tq_long_loop_gets_loop_probe () =
  let p = prog_of (Ast.loop_n 10_000 (Ast.work 5)) in
  let tq = Tq_pass.instrument ~config:{ Tq_pass.bound = 400; non_reentrant = [] } p in
  let f = Cfg.func_of_program tq "main" in
  let loop_probes =
    Array.to_list f.blocks
    |> List.concat_map (fun (b : Cfg.block) -> b.instrs)
    |> List.filter (function Instr.Probe (Instr.Loop_probe _) -> true | _ -> false)
  in
  check Alcotest.int "one loop probe" 1 (List.length loop_probes);
  match loop_probes with
  | [ Instr.Probe (Instr.Loop_probe { period; _ }) ] ->
      (* bound 400 / ~5 instrs per iteration -> period ~80. *)
      Alcotest.(check bool) (Printf.sprintf "period %d" period) true
        (period >= 60 && period <= 100)
  | _ -> assert false

let test_tq_sparser_than_ci () =
  List.iter
    (fun (named : Bench_programs.named) ->
      let p = Bench_programs.lowered named in
      let ci = Ci_pass.instrument p and tq = Tq_pass.instrument p in
      Alcotest.(check bool)
        (named.prog_name ^ ": tq static probes <= ci")
        true
        (Cfg.program_probe_count tq <= Cfg.program_probe_count ci))
    Bench_programs.all

let test_tq_yield_interval_bounded () =
  (* The pass bounds probe-free stretches, so overshoot past the quantum
     is limited; with bound=400 instructions and worst-case ~40-cycle
     instructions the slack stays well under the quantum itself. *)
  let quantum = 4200 in
  List.iter
    (fun (named : Bench_programs.named) ->
      let p = Bench_programs.lowered named in
      let tq = Tq_pass.instrument ~config:{ Tq_pass.bound = 400; non_reentrant = [] } p in
      let r = run ~quantum_cycles:quantum tq in
      if r.yields > 3 then begin
        let sorted = List.sort compare r.yield_intervals in
        (* Use the median overshoot: single worst intervals may cross an
           expensive uninstrumented stretch (externals, final tail). *)
        let median = List.nth sorted (List.length sorted / 2) in
        Alcotest.(check bool)
          (Printf.sprintf "%s: median interval %d vs quantum %d" named.prog_name median
             quantum)
          true
          (median >= quantum && median < 3 * quantum)
      end)
    Bench_programs.all

let test_tq_cloned_self_loop_skips_cost () =
  (* A self-loop with tiny runtime trip counts: the cloned version must
     execute no probe work at all. *)
  let body = Ast.loop_dyn ~lo:2 ~hi:4 (Ast.work 6) in
  let p = prog_of (Ast.loop_n 50 body) in
  let tq = Tq_pass.instrument ~config:{ Tq_pass.bound = 400; non_reentrant = [] } p in
  let r = run tq in
  (* Inner loop can never reach its period; outer loop carries the probe.
     Probe cost must stay tiny relative to ~50*3*6 = 900+ work cycles. *)
  Alcotest.(check bool)
    (Printf.sprintf "probe cycles %d small" r.probe_cycles)
    true
    (r.probe_cycles * 10 < r.work_cycles)

let test_tq_call_heavy_uses_summaries () =
  (* A long always-probed callee lets the caller skip its own probes. *)
  let callee = Ast.loop_n 10_000 (Ast.work 5) in
  let p = prog_of ~funcs:[ ("big", callee) ] (Ast.loop_n 1000 (Ast.CallFn "big")) in
  let tq = Tq_pass.instrument ~config:{ Tq_pass.bound = 400; non_reentrant = [] } p in
  let main = Cfg.func_of_program tq "main" in
  (* main's loop body is just the call; the callee's loop probe covers
     it, so main needs at most one probe. *)
  Alcotest.(check bool) "main barely instrumented" true (Cfg.probe_count main <= 1)

let test_tq_summary_fields () =
  let p = prog_of (Ast.work 2000) in
  let tq = Tq_pass.instrument ~config:{ Tq_pass.bound = 400; non_reentrant = [] } p in
  let f = Cfg.func_of_program tq "main" in
  let s = Tq_pass.summarize [] f in
  Alcotest.(check bool) "always probed" true s.Tq_pass.always_probed;
  Alcotest.(check bool) "prefix bounded" true (s.Tq_pass.max_prefix <= 400);
  Alcotest.(check bool) "suffix bounded" true (s.Tq_pass.max_suffix <= 400)

let test_tq_unprobed_summary () =
  let p = prog_of (Ast.work 50) in
  let tq = Tq_pass.instrument ~config:{ Tq_pass.bound = 400; non_reentrant = [] } p in
  let s = Tq_pass.summarize [] (Cfg.func_of_program tq "main") in
  Alcotest.(check bool) "not always probed" false s.Tq_pass.always_probed;
  check Alcotest.int "prefix is whole body" 50 s.Tq_pass.max_prefix

let test_tq_rejects_bad_bound () =
  let p = prog_of (Ast.work 5) in
  Alcotest.check_raises "bound 0" (Invalid_argument "Tq_pass.instrument: bound must be positive")
    (fun () -> ignore (Tq_pass.instrument ~config:{ Tq_pass.bound = 0; non_reentrant = [] } p))

let test_passes_do_not_mutate_input () =
  let p = prog_of (Ast.loop_n 10_000 (Ast.work 5)) in
  let before = Cfg.program_probe_count p in
  ignore (Tq_pass.instrument p);
  ignore (Ci_pass.instrument p);
  check Alcotest.int "input untouched" before (Cfg.program_probe_count p)

(* --- Random program property tests --- *)

let gen_ast =
  let open QCheck.Gen in
  let leaf =
    frequency
      [
        (4, map (fun n -> Ast.work (n + 1)) (int_bound 30));
        (2, return (Ast.mixed ~alu:3 ~loads:2 ~miss_prob:0.1 ~stores:1 ()));
        (1, return (Ast.External { name = "ext"; cycles = 50 }));
      ]
  in
  let rec node depth =
    if depth = 0 then leaf
    else
      frequency
        [
          (3, leaf);
          ( 2,
            map2
              (fun a b -> Ast.if_ ~prob:0.5 a b)
              (node (depth - 1))
              (node (depth - 1)) );
          ( 2,
            map2
              (fun n body -> Ast.loop_n (n + 1) body)
              (int_bound 30)
              (node (depth - 1)) );
          ( 1,
            map2
              (fun n body -> Ast.loop_dyn ~lo:1 ~hi:(n + 2) body)
              (int_bound 60)
              (node (depth - 1)) );
          (1, map (fun l -> Ast.seq l) (list_size (int_range 1 3) (node (depth - 1))));
        ]
  in
  node 4

let arb_ast = QCheck.make ~print:(fun _ -> "<ast>") gen_ast

let test_random_programs_instrumentable =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60 ~name:"random programs: passes valid, VM total preserved"
       arb_ast (fun ast ->
         let p = prog_of ast in
         let tq = Tq_pass.instrument p in
         let ci = Ci_pass.instrument p in
         Cfg.validate tq;
         Cfg.validate ci;
         let base = run ~seed:9L p in
         let tq_r = run ~seed:9L tq in
         let ci_r = run ~seed:9L ci in
         (* Identical control flow => identical work. *)
         base.work_cycles = tq_r.work_cycles
         && base.work_cycles = ci_r.work_cycles
         && tq_r.total_cycles >= base.total_cycles
         && ci_r.total_cycles >= base.total_cycles))

let test_random_programs_tq_yields =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:40
       ~name:"random long programs: TQ-instrumented yields when run >> quantum" arb_ast
       (fun ast ->
         (* Wrap in a big outer loop so programs run long enough. *)
         let p = prog_of (Ast.loop_n 300 ast) in
         let tq = Tq_pass.instrument p in
         let base = run ~seed:13L p in
         let quantum = 2000 in
         if base.total_cycles > 30 * quantum then begin
           let r = run ~seed:13L ~quantum_cycles:quantum tq in
           r.yields > 0
         end
         else true))

(* --- Evaluate --- *)

let test_evaluate_row_sane () =
  let row = Evaluate.evaluate (Option.get (Bench_programs.find "histogram")) in
  Alcotest.(check bool) "base cycles positive" true (row.base_cycles > 0);
  Alcotest.(check bool) "tq overhead < ci overhead" true
    (row.tq_overhead_pct < row.ci_overhead_pct);
  Alcotest.(check bool) "overheads nonnegative" true
    (row.tq_overhead_pct >= 0.0 && row.ci_overhead_pct >= 0.0);
  Alcotest.(check bool) "MAEs finite" true
    (Float.is_finite row.tq_mae_ns && Float.is_finite row.ci_mae_ns)

let test_table3_means_ordering () =
  (* The paper's headline: TQ reduces both mean probing overhead and mean
     MAE relative to CI. Evaluate a subset to keep the test fast. *)
  let subset =
    List.filteri (fun i _ -> i mod 4 = 0) Bench_programs.all
    |> List.map (fun p -> Evaluate.evaluate p)
  in
  let m = Evaluate.means subset in
  Alcotest.(check bool) "mean overhead: tq < ci" true
    (m.Evaluate.mean_tq_overhead < m.Evaluate.mean_ci_overhead);
  Alcotest.(check bool) "mean MAE: tq < ci" true
    (m.Evaluate.mean_tq_mae < m.Evaluate.mean_ci_mae)

let test_rocksdb_get_magnitude () =
  let p = Bench_programs.lowered Bench_programs.rocksdb_get in
  let r = run ~seed:21L p in
  let us = float_of_int r.total_cycles /. 2100.0 in
  Alcotest.(check bool) (Printf.sprintf "GET ~2us (got %.2f)" us) true (us > 1.0 && us < 4.0)

let test_rocksdb_scan_magnitude () =
  let p = Bench_programs.lowered Bench_programs.rocksdb_scan in
  let r = run ~seed:21L p in
  let us = float_of_int r.total_cycles /. 2100.0 in
  Alcotest.(check bool)
    (Printf.sprintf "SCAN ~675us (got %.0f)" us)
    true
    (us > 450.0 && us < 900.0)

let test_rocksdb_get_probe_ratio () =
  (* Section 3.1: TQ instruments far fewer probes than CI on the GET. *)
  let p = Bench_programs.lowered Bench_programs.rocksdb_get in
  let ci = Ci_pass.instrument p and tq = Tq_pass.instrument p in
  let q = 4200 in
  let ci_r = run ~seed:21L ~quantum_cycles:q ci in
  let tq_r = run ~seed:21L ~quantum_cycles:q tq in
  Alcotest.(check bool)
    (Printf.sprintf "dynamic probes: ci %d >> tq %d" ci_r.probe_executions
       tq_r.probe_executions)
    true
    (ci_r.probe_executions > 20 * max 1 tq_r.probe_executions)

let suite =
  [
    Alcotest.test_case "vm straight line" `Quick test_vm_straight_line_cycles;
    Alcotest.test_case "vm static loop" `Quick test_vm_static_loop;
    Alcotest.test_case "vm nested loops" `Quick test_vm_nested_loops;
    Alcotest.test_case "vm dynamic loop" `Quick test_vm_dynamic_loop_in_range;
    Alcotest.test_case "vm branch probs" `Quick test_vm_branch_probabilities;
    Alcotest.test_case "vm call cost" `Quick test_vm_call_cost;
    Alcotest.test_case "vm external cost" `Quick test_vm_external_cost;
    Alcotest.test_case "vm div cost" `Quick test_vm_div_cost;
    Alcotest.test_case "vm deterministic" `Quick test_vm_deterministic;
    Alcotest.test_case "vm paired control flow" `Quick test_vm_paired_control_flow;
    Alcotest.test_case "ci probe every block" `Quick test_ci_probe_every_block;
    Alcotest.test_case "ci counter adds" `Quick test_ci_counter_adds_match_blocks;
    Alcotest.test_case "ci yields near threshold" `Quick test_ci_yields_near_threshold;
    Alcotest.test_case "ci-cycles never early" `Quick test_ci_cycles_never_early;
    Alcotest.test_case "tq straight-line spacing" `Quick test_tq_straight_line_probe_spacing;
    Alcotest.test_case "tq small loop unprobed" `Quick test_tq_small_static_loop_unprobed;
    Alcotest.test_case "tq loop probe period" `Quick test_tq_long_loop_gets_loop_probe;
    Alcotest.test_case "tq sparser than ci" `Quick test_tq_sparser_than_ci;
    Alcotest.test_case "tq yield interval bounded" `Quick test_tq_yield_interval_bounded;
    Alcotest.test_case "tq cloned self loop" `Quick test_tq_cloned_self_loop_skips_cost;
    Alcotest.test_case "tq call summaries" `Quick test_tq_call_heavy_uses_summaries;
    Alcotest.test_case "tq summary fields" `Quick test_tq_summary_fields;
    Alcotest.test_case "tq unprobed summary" `Quick test_tq_unprobed_summary;
    Alcotest.test_case "tq rejects bad bound" `Quick test_tq_rejects_bad_bound;
    Alcotest.test_case "passes pure" `Quick test_passes_do_not_mutate_input;
    test_random_programs_instrumentable;
    test_random_programs_tq_yields;
    Alcotest.test_case "evaluate row sane" `Quick test_evaluate_row_sane;
    Alcotest.test_case "table3 means ordering" `Quick test_table3_means_ordering;
    Alcotest.test_case "rocksdb get magnitude" `Quick test_rocksdb_get_magnitude;
    Alcotest.test_case "rocksdb scan magnitude" `Quick test_rocksdb_scan_magnitude;
    Alcotest.test_case "rocksdb get probe ratio" `Quick test_rocksdb_get_probe_ratio;
  ]
