type t = {
  id : int;
  class_idx : int;
  service_ns : int;
  arrival_ns : int;
  initial_effective_ns : int;
  mutable remaining_ns : int;
  mutable serviced_quanta : int;
}

let of_request ~probe_overhead_frac (req : Tq_workload.Arrivals.request) =
  if probe_overhead_frac < 0.0 then invalid_arg "Job.of_request: negative overhead";
  let effective =
    int_of_float (Float.round (float_of_int req.service_ns *. (1.0 +. probe_overhead_frac)))
  in
  {
    id = req.req_id;
    class_idx = req.class_idx;
    service_ns = req.service_ns;
    arrival_ns = req.arrival_ns;
    initial_effective_ns = Int.max 1 effective;
    remaining_ns = Int.max 1 effective;
    serviced_quanta = 0;
  }

let finished j = j.remaining_ns <= 0
let attained_ns j = j.initial_effective_ns - j.remaining_ns

let none =
  {
    id = -1;
    class_idx = 0;
    service_ns = 0;
    arrival_ns = 0;
    initial_effective_ns = 0;
    remaining_ns = 0;
    serviced_quanta = 0;
  }
