(* Unit tests for the feedback control law: pure samples in, actions
   out — no scheduler behind it, which is the point of keeping the
   controller policy-only. *)

module C = Tq_control.Controller

let check = Alcotest.check

let raises_invalid f =
  match f () with exception Invalid_argument _ -> true | _ -> false

let objective = { Tq_obs.Slo.name = "test"; latency_ns = 1_000_000; goodput = 0.99 }

(* 10 us initial quantum, shed limit 4096, 100 us ticks, hold 2. *)
let cfg =
  {
    (C.default_config ~quantum_initial_ns:10_000 ~shed_initial:4_096)
    with
    C.objective;
  }

let sample ~now ~classes ?(queued = 0) ?(in_flight = 0) ?(busy = 0) () =
  {
    C.now_ns = now;
    queued;
    in_flight;
    busy_cores = busy;
    classes =
      Array.map (fun (completed, good, shed) -> { C.completed; good; shed }) classes;
  }

(* --- validation --- *)

let test_validation () =
  let bad f = raises_invalid (fun () -> C.create (f cfg)) in
  check Alcotest.bool "zero interval" true (bad (fun c -> { c with C.interval_ns = 0 }));
  check Alcotest.bool "inverted quantum clamp" true
    (bad (fun c -> { c with C.quantum_min_ns = 100; quantum_max_ns = 10 }));
  check Alcotest.bool "initial quantum outside clamp" true
    (bad (fun c -> { c with C.quantum_initial_ns = c.C.quantum_max_ns + 1 }));
  check Alcotest.bool "inverted shed clamp" true
    (bad (fun c -> { c with C.shed_min = 10; shed_max = 5; shed_initial = 7 }));
  check Alcotest.bool "initial shed outside clamp" true
    (bad (fun c -> { c with C.shed_initial = c.C.shed_max + 1 }));
  check Alcotest.bool "inverted watermarks" true
    (bad (fun c -> { c with C.burn_lo = 2.0; burn_hi = 1.0 }));
  check Alcotest.bool "hold_ticks < 1" true (bad (fun c -> { c with C.hold_ticks = 0 }));
  check Alcotest.bool "min_window < 1" true (bad (fun c -> { c with C.min_window = 0 }));
  check Alcotest.bool "decrease >= 1" true (bad (fun c -> { c with C.decrease = 1.0 }));
  check Alcotest.bool "increase <= 1" true (bad (fun c -> { c with C.increase = 1.0 }));
  check Alcotest.bool "headroom > 1" true (bad (fun c -> { c with C.headroom = 1.5 }))

let test_initial_actions () =
  let t = C.create cfg in
  (match C.initial_actions t with
  | [ C.Set_quantum { class_idx = None; quantum_ns }; C.Set_shed_limit { max_in_system } ]
    ->
      check Alcotest.int "initial quantum" 10_000 quantum_ns;
      check Alcotest.int "initial shed limit" 4_096 max_in_system
  | _ -> Alcotest.fail "expected base quantum + shed limit");
  check Alcotest.int "attach quantum visible" 10_000 (C.quantum_ns t ~class_idx:0);
  check Alcotest.int "attach shed visible" 4_096 (C.shed_limit t)

(* --- evidence floor --- *)

let test_min_window_skips () =
  let t = C.create cfg in
  (* 100% late, but never enough completions per window to judge: the
     quantum must not move no matter how long this goes on. *)
  for i = 1 to 20 do
    let s = sample ~now:(i * 100_000) ~classes:[| (i * 4, 0, 0) |] () in
    check Alcotest.(list reject) "no actions on thin windows" [] (C.tick t s)
  done;
  check Alcotest.int "quantum untouched" 10_000 (C.quantum_ns t ~class_idx:0);
  check Alcotest.int "no decisions" 0 (C.decisions t);
  check Alcotest.int "ticks still counted" 20 (C.ticks t)

(* --- quantum loop --- *)

(* Differential lateness: class 0 burns hard while class 1 keeps the
   system-wide burn inside budget — the interference signature that the
   quantum decrease exists for. *)
let test_quantum_down_needs_persistence () =
  let t = C.create cfg in
  let tick i =
    C.tick t
      (sample ~now:(i * 100_000)
         ~classes:[| (i * 8, 0, 0); (i * 1000, i * 1000, 0) |]
         ())
  in
  check Alcotest.(list reject) "one hot tick never actuates" [] (tick 1);
  let class0_moves =
    List.filter_map
      (function
        | C.Set_quantum { class_idx = Some 0; quantum_ns } -> Some quantum_ns
        | _ -> None)
      (tick 2)
  in
  (* (class 1, all-good, may probe its own quantum up on the same tick) *)
  check Alcotest.(list int) "multiplicative decrease on the held breach" [ 5_000 ]
    class0_moves;
  check Alcotest.int "class 0 state moved" 5_000 (C.quantum_ns t ~class_idx:0);
  check Alcotest.int "class 1 probed up independently" 13_000 (C.quantum_ns t ~class_idx:1)

let test_quantum_frozen_while_system_breaching () =
  let t = C.create cfg in
  (* Class 0 is perfectly healthy, but the system as a whole burns
     (class 1 is fully late): neither direction may move — shrinking
     cannot drain a backlog, and growing would trade away granularity
     mid-incident. *)
  for i = 1 to 6 do
    let actions =
      C.tick t
        (sample ~now:(i * 100_000)
           ~classes:[| (i * 1000, i * 1000, 0); (i * 100, 0, 0) |]
           ())
    in
    List.iter
      (function
        | C.Set_quantum _ -> Alcotest.fail "quantum moved during a system-wide breach"
        | C.Set_shed_limit _ -> ())
      actions
  done;
  check Alcotest.int "healthy class untouched" 10_000 (C.quantum_ns t ~class_idx:0);
  check Alcotest.int "breaching class untouched" 10_000 (C.quantum_ns t ~class_idx:1)

let test_quantum_up_when_healthy () =
  let t = C.create cfg in
  let tick i = C.tick t (sample ~now:(i * 100_000) ~classes:[| (i * 100, i * 100, 0) |] ()) in
  check Alcotest.(list reject) "one cool tick never actuates" [] (tick 1);
  (match tick 2 with
  | [ C.Set_quantum { class_idx = Some 0; quantum_ns } ] ->
      check Alcotest.int "multiplicative increase" 13_000 quantum_ns
  | _ -> Alcotest.fail "expected a quantum increase after sustained health");
  (* the clamp ceiling binds eventually *)
  for i = 3 to 30 do ignore (tick i : C.action list) done;
  check Alcotest.int "ceiling respected" cfg.C.quantum_max_ns (C.quantum_ns t ~class_idx:0)

(* --- admission loop --- *)

(* Drive the completion-rate EWMA to a known value (100 completions per
   100 us window = 1e-3/ns), then breach via the leading sensor: a deep
   in-flight backlog predicts sojourns past the target long before late
   completions arrive. *)
let test_shed_snaps_to_little_target () =
  let t = C.create cfg in
  let tick i ~in_flight =
    C.tick t (sample ~now:(i * 100_000) ~in_flight ~classes:[| (i * 100, i * 100, 0) |] ())
  in
  ignore (tick 1 ~in_flight:0 : C.action list);
  (* rate_ewma now known; healthy ticks may raise the quantum, which is
     fine — we only watch the shed limit here. *)
  let shed_moves actions =
    List.filter_map
      (function C.Set_shed_limit { max_in_system } -> Some max_in_system | _ -> None)
      actions
  in
  check Alcotest.(list int) "first breach tick holds fire" []
    (shed_moves (tick 2 ~in_flight:1_000_000));
  (match shed_moves (tick 3 ~in_flight:1_000_000) with
  | [ limit ] ->
      (* rate x latency x headroom = 1e-3 * 1e6 * 0.8 = 800 *)
      check Alcotest.int "snapped to the Little's-law target" 800 limit
  | _ -> Alcotest.fail "expected the shed limit to snap down");
  check Alcotest.int "limit visible" 800 (C.shed_limit t);
  (* Further sustained breach: the cap already sits at the target, and
     the law never cuts below it — residual lateness is backlog
     draining, not something the gate can fix. *)
  for i = 4 to 8 do
    check Alcotest.(list int) "never below the Little target" []
      (shed_moves (tick i ~in_flight:1_000_000))
  done

let test_shed_probe_requires_binding_gate () =
  let t = C.create cfg in
  let tick i ~shed =
    C.tick t (sample ~now:(i * 100_000) ~in_flight:8 ~classes:[| (i * 100, i * 100, shed) |] ())
  in
  let shed_moves actions =
    List.filter_map
      (function C.Set_shed_limit { max_in_system } -> Some max_in_system | _ -> None)
      actions
  in
  (* Healthy and nobody sheds: raising the cap would silently disarm
     it, so the probe must stay quiet. *)
  for i = 1 to 6 do
    check Alcotest.(list int) "no probe while the gate is slack" []
      (shed_moves (tick i ~shed:0))
  done;
  (* Healthy while the gate visibly binds: probe upward, additively. *)
  let seen = ref [] in
  for i = 7 to 10 do
    seen := !seen @ shed_moves (tick i ~shed:(i * 10))
  done;
  (match !seen with
  | limit :: _ ->
      check Alcotest.int "additive probe step" (4_096 + (4_096 / 8)) limit
  | [] -> Alcotest.fail "expected an upward probe while the gate binds");
  check Alcotest.bool "probe stays under the ceiling" true
    (C.shed_limit t <= cfg.C.shed_max)

(* --- bookkeeping --- *)

let test_state_json () =
  let t = C.create cfg in
  ignore (C.tick t (sample ~now:100_000 ~classes:[| (100, 100, 0) |] ()) : C.action list);
  let s = C.state_json t in
  let contains needle =
    let nl = String.length needle and sl = String.length s in
    let rec go i = i + nl <= sl && (String.sub s i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      check Alcotest.bool (Printf.sprintf "state has %s" needle) true (contains needle))
    [ "\"ticks\""; "\"decisions\""; "\"shed_limit\""; "\"burn\""; "\"classes\"";
      "\"quantum_ns\"" ]

(* The closed loop must beat every static quantum on goodput under
   both gated conditions.  The quick sweep runs in virtual time, so its
   ratios are exact and pinned here as printed. *)
let test_adaptive_beats_static () =
  let module A = Tq_experiments.Adaptive in
  let outcomes = A.run_all ~quick:true ~workload:Tq_workload.Table1.high_bimodal () in
  List.iter
    (fun (o : A.outcome) ->
      if not (o.margin > 0.0) then
        Alcotest.failf "adaptive lost to a static setting on %s (margin %.4f)"
          o.spec.scenario o.margin)
    outcomes;
  check
    Alcotest.(list string)
    "scenario, adaptive ratio, best static ratio, margin"
    [ "stall 0.7751 0.4981 0.2770"; "overload 0.7914 0.5036 0.2878" ]
    (List.map
       (fun (o : A.outcome) ->
         Printf.sprintf "%s %.4f %.4f %.4f" o.spec.scenario o.adaptive_ratio
           o.best_static_ratio o.margin)
       outcomes)

let suite =
  [
    Alcotest.test_case "config validation" `Quick test_validation;
    Alcotest.test_case "initial actions" `Quick test_initial_actions;
    Alcotest.test_case "min_window evidence floor" `Quick test_min_window_skips;
    Alcotest.test_case "quantum down needs persistence" `Quick
      test_quantum_down_needs_persistence;
    Alcotest.test_case "quantum frozen during system breach" `Quick
      test_quantum_frozen_while_system_breaching;
    Alcotest.test_case "quantum up when healthy" `Quick test_quantum_up_when_healthy;
    Alcotest.test_case "shed snaps to Little target" `Quick
      test_shed_snaps_to_little_target;
    Alcotest.test_case "shed probe requires binding gate" `Quick
      test_shed_probe_requires_binding_gate;
    Alcotest.test_case "state json" `Quick test_state_json;
    Alcotest.test_case "adaptive beats every static setting" `Quick
      test_adaptive_beats_static;
  ]
