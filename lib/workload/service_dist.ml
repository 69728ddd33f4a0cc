module Prng = Tq_util.Prng

type sampler =
  | Fixed of int
  | Exponential of float
  | Uniform of int * int
  | Lognormal of { median_ns : float; sigma : float }
  | Empirical of int array

type job_class = { class_name : string; ratio : float; sampler : sampler }
type t = { name : string; classes : job_class array }

let make ~name classes =
  if classes = [] then invalid_arg "Service_dist.make: no classes";
  let total = List.fold_left (fun acc c -> acc +. c.ratio) 0.0 classes in
  if Float.abs (total -. 1.0) > 1e-6 then
    invalid_arg
      (Printf.sprintf "Service_dist.make(%s): ratios sum to %f, expected 1.0" name total);
  List.iter
    (fun c -> if c.ratio <= 0.0 then invalid_arg "Service_dist.make: non-positive ratio")
    classes;
  { name; classes = Array.of_list classes }

let sample_service_ns t ~class_idx rng =
  let sampler = t.classes.(class_idx).sampler in
  let v =
    match sampler with
    | Fixed ns -> ns
    | Exponential mean -> Prng.exponential_int rng ~mean
    | Uniform (lo, hi) -> Prng.int_in_range rng ~lo ~hi
    | Lognormal { median_ns; sigma } ->
        int_of_float (Float.round (Prng.lognormal rng ~mu:(log median_ns) ~sigma))
    | Empirical samples ->
        if Array.length samples = 0 then invalid_arg "Service_dist: empty empirical sampler"
        else samples.(Prng.int rng (Array.length samples))
  in
  Int.max 1 v

(* [Prng.choose_weighted] over the class ratios, scanned in place: the
   same float sums in the same order and one draw, so the same class,
   without building a weights array per arrival. *)
let sample_class t rng =
  let classes = t.classes in
  let n = Array.length classes in
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    total := !total +. classes.(i).ratio
  done;
  let target = Prng.float rng !total in
  let idx = ref (n - 1) and acc = ref 0.0 and i = ref 0 in
  while !i < n - 1 do
    acc := !acc +. classes.(!i).ratio;
    if target < !acc then begin
      idx := !i;
      i := n
    end
    else incr i
  done;
  !idx

let sampler_mean_ns = function
  | Fixed ns -> float_of_int ns
  | Exponential mean -> mean
  | Uniform (lo, hi) -> (float_of_int lo +. float_of_int hi) /. 2.0
  | Lognormal { median_ns; sigma } -> median_ns *. exp (sigma *. sigma /. 2.0)
  | Empirical samples ->
      if Array.length samples = 0 then nan
      else
        Array.fold_left (fun acc s -> acc +. float_of_int s) 0.0 samples
        /. float_of_int (Array.length samples)

let mean_service_ns t =
  Array.fold_left (fun acc c -> acc +. (c.ratio *. sampler_mean_ns c.sampler)) 0.0 t.classes

let class_count t = Array.length t.classes
let class_name t i = t.classes.(i).class_name

let dispersion_ratio t =
  let means = Array.map (fun c -> sampler_mean_ns c.sampler) t.classes in
  let lo = Array.fold_left Float.min infinity means in
  let hi = Array.fold_left Float.max neg_infinity means in
  hi /. lo
