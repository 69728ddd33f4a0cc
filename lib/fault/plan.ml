(* Declarative fault plans.

   A plan is a list of specs; the injector turns each into
   deterministic, seeded DES events.  Keeping the description separate
   from the mechanism means the same plan can be replayed against TQ and
   both baselines, which is what makes degradation curves comparable. *)

module Prng = Tq_util.Prng

type duration =
  | Fixed_ns of int
  | Uniform_ns of { lo : int; hi : int }
  | Exp_ns of { mean : int }

type scope = All_workers | Workers of int list

type spec =
  | Stalls of { intensity : float; duration : duration; scope : scope; tick_ns : int }
      (** Transient core blackouts: each tick, each in-scope core starts
          a stall with probability chosen so the long-run expected
          fraction of time stalled is [intensity]. *)
  | Kill of { wid : int; at_ns : int }  (** permanent core failure at [at_ns] *)
  | Dispatcher_outage of { dispatcher : int; at_ns : int; duration_ns : int }
      (** the dispatcher core goes dark for [duration_ns]; arrivals
          still queue behind the outage *)
  | Nic_drop of { prob : float }
      (** each request is lost on the NIC path with probability [prob] *)

let mean_duration_ns = function
  | Fixed_ns d -> float_of_int d
  | Uniform_ns { lo; hi } -> float_of_int (lo + hi) /. 2.0
  | Exp_ns { mean } -> float_of_int mean

let sample_duration rng = function
  | Fixed_ns d -> d
  | Uniform_ns { lo; hi } -> Prng.int_in_range rng ~lo ~hi
  | Exp_ns { mean } ->
      Int.max 1 (Prng.exponential_int rng ~mean:(float_of_int mean))

let validate_duration = function
  | Fixed_ns d -> if d <= 0 then invalid_arg "Plan: stall duration must be positive"
  | Uniform_ns { lo; hi } ->
      if lo <= 0 || hi < lo then invalid_arg "Plan: bad uniform duration range"
  | Exp_ns { mean } -> if mean <= 0 then invalid_arg "Plan: mean duration must be positive"

let validate = function
  | Stalls { intensity; duration; scope = _; tick_ns } ->
      if not (intensity >= 0.0 && intensity <= 1.0) then
        invalid_arg "Plan: stall intensity must be in [0, 1]";
      if tick_ns <= 0 then invalid_arg "Plan: stall tick must be positive";
      validate_duration duration
  | Kill { wid; at_ns } ->
      if wid < 0 then invalid_arg "Plan: negative worker id";
      if at_ns < 0 then invalid_arg "Plan: negative kill time"
  | Dispatcher_outage { dispatcher; at_ns; duration_ns } ->
      if dispatcher < 0 then invalid_arg "Plan: negative dispatcher id";
      if at_ns < 0 then invalid_arg "Plan: negative outage time";
      if duration_ns <= 0 then invalid_arg "Plan: outage duration must be positive"
  | Nic_drop { prob } ->
      if not (prob >= 0.0 && prob <= 1.0) then
        invalid_arg "Plan: drop probability must be in [0, 1]"

let duration_to_string = function
  | Fixed_ns d -> Printf.sprintf "%dns" d
  | Uniform_ns { lo; hi } -> Printf.sprintf "U[%d,%d]ns" lo hi
  | Exp_ns { mean } -> Printf.sprintf "Exp(%dns)" mean

let to_string = function
  | Stalls { intensity; duration; scope; tick_ns } ->
      Printf.sprintf "stalls(%.1f%%, %s, %s, tick=%dns)" (100.0 *. intensity)
        (duration_to_string duration)
        (match scope with
        | All_workers -> "all"
        | Workers ws -> String.concat "," (List.map string_of_int ws))
        tick_ns
  | Kill { wid; at_ns } -> Printf.sprintf "kill(worker %d @ %dns)" wid at_ns
  | Dispatcher_outage { dispatcher; at_ns; duration_ns } ->
      Printf.sprintf "outage(dispatcher %d @ %dns for %dns)" dispatcher at_ns duration_ns
  | Nic_drop { prob } -> Printf.sprintf "nic-drop(p=%.3f)" prob
