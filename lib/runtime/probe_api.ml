type t = {
  clock : Clock.t;
  mutable quantum_ns : int;
  mutable quantum_start : int;
  mutable critical_depth : int;
  mutable probes : int;
  mutable yields : int;
  mutable last_probe_ns : int;  (* -1 = no probe yet this quantum *)
  mutable cadence : Tq_obs.Counters.dist option;
}

let create ~clock ~quantum_ns =
  if quantum_ns <= 0 then invalid_arg "Probe_api.create: quantum must be positive";
  {
    clock;
    quantum_ns;
    quantum_start = 0;
    critical_depth = 0;
    probes = 0;
    yields = 0;
    last_probe_ns = -1;
    cadence = None;
  }

let key : t option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let install t = Domain.DLS.get key := Some t
let uninstall () = Domain.DLS.get key := None
let current () = !(Domain.DLS.get key)

let start_quantum t =
  t.quantum_start <- Clock.now_ns t.clock;
  (* Cadence gaps are intra-quantum only: the stretch between quanta is
     scheduler time, not probe-starved task code. *)
  t.last_probe_ns <- t.quantum_start

let set_cadence t d = t.cadence <- d

let expired t = Clock.now_ns t.clock - t.quantum_start >= t.quantum_ns

let do_yield t =
  t.yields <- t.yields + 1;
  Fiber.yield ();
  (* The scheduler re-arms the quantum before resuming, but re-arm here
     too so probes remain correct under a bare resumer (tests). *)
  start_quantum t

let probe () =
  match current () with
  | None -> ()
  | Some t ->
      t.probes <- t.probes + 1;
      (match t.cadence with
      | None -> ()
      | Some d ->
          let now = Clock.now_ns t.clock in
          if t.last_probe_ns >= 0 then
            Tq_obs.Counters.observe d (now - t.last_probe_ns);
          t.last_probe_ns <- now);
      if t.critical_depth = 0 && expired t then do_yield t

let critical_begin () =
  match current () with
  | None -> ()
  | Some t -> t.critical_depth <- t.critical_depth + 1

let critical_end () =
  match current () with
  | None -> ()
  | Some t ->
      if t.critical_depth <= 0 then invalid_arg "Probe_api.critical_end: not in a section";
      t.critical_depth <- t.critical_depth - 1;
      if t.critical_depth = 0 && expired t then do_yield t

let probes_executed t = t.probes
let yields_taken t = t.yields
let quantum_ns t = t.quantum_ns

let set_quantum_ns t q =
  if q <= 0 then invalid_arg "Probe_api.set_quantum_ns: quantum must be positive";
  t.quantum_ns <- q
