module Sim = Tq_engine.Sim
module Prng = Tq_util.Prng

type request = { req_id : int; class_idx : int; service_ns : int; arrival_ns : int }

let install sim ~rng ~workload ~rate_rps ~duration_ns ~sink =
  if rate_rps <= 0.0 then invalid_arg "Arrivals.install: rate must be positive";
  let issued = ref 0 in
  let mean_gap_ns = 1e9 /. rate_rps in
  let next_gap () =
    Int.max 1 (Prng.exponential_int rng ~mean:mean_gap_ns)
  in
  let next = ref Sim.no_action in
  let arrive () =
    let now = Sim.now sim in
    if now <= duration_ns then begin
      let class_idx = Service_dist.sample_class workload rng in
      let service_ns = Service_dist.sample_service_ns workload ~class_idx rng in
      incr issued;
      sink { req_id = !issued; class_idx; service_ns; arrival_ns = now };
      Sim.post sim ~delay:(next_gap ()) !next
    end
  in
  next := Sim.action sim arrive;
  Sim.post sim ~delay:(next_gap ()) !next;
  issued

let capacity_rps ~cores workload =
  float_of_int cores /. (Service_dist.mean_service_ns workload /. 1e9)
