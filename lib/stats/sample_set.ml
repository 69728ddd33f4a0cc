module Fvec = Tq_util.Fvec

type t = { samples : Fvec.t }

let create ?(capacity = 1024) () = { samples = Fvec.create ~capacity () }
let[@inline] add t x = Fvec.push t.samples x
let count t = Fvec.length t.samples
let mean t = Fvec.mean t.samples

let max_value t =
  if count t = 0 then nan else Fvec.fold Float.max neg_infinity t.samples

let min_value t =
  if count t = 0 then nan else Fvec.fold Float.min infinity t.samples

let rank_of_percentile n p =
  (* Nearest-rank: smallest k with k/n >= p/100, clamped to [0, n-1]. *)
  let k = int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1 in
  max 0 (min (n - 1) k)

let percentile_of_sorted sorted p =
  let n = Array.length sorted in
  if n = 0 then nan else sorted.(rank_of_percentile n p)

let percentile t p =
  if p < 0.0 || p > 100.0 then invalid_arg "Sample_set.percentile: p out of range";
  percentile_of_sorted (Fvec.sorted_copy t.samples) p

let percentiles t ps =
  let sorted = Fvec.sorted_copy t.samples in
  List.map (percentile_of_sorted sorted) ps

let std_dev t =
  let n = count t in
  if n < 2 then nan
  else begin
    let m = mean t in
    let ss = Fvec.fold (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 t.samples in
    sqrt (ss /. float_of_int (n - 1))
  end

let clear t = Fvec.clear t.samples
let to_sorted_array t = Fvec.sorted_copy t.samples
