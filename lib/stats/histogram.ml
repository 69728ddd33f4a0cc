type t = {
  sub_buckets : int;
  sub_shift : int; (* log2 sub_buckets *)
  counts : int array;
  n_buckets : int;
  max_value : int;
  mutable total : int;
  mutable max_recorded : int;
}

let is_power_of_two n = n > 0 && n land (n - 1) = 0

(* Floor of log2 by halving the width, not one bit per step: it runs
   on every record, ten per completed live request. *)
let log2_int n =
  let r = ref 0 and n = ref n in
  if !n >= 1 lsl 32 then begin n := !n lsr 32; r := 32 end;
  if !n >= 1 lsl 16 then begin n := !n lsr 16; r := !r + 16 end;
  if !n >= 1 lsl 8 then begin n := !n lsr 8; r := !r + 8 end;
  if !n >= 1 lsl 4 then begin n := !n lsr 4; r := !r + 4 end;
  if !n >= 1 lsl 2 then begin n := !n lsr 2; r := !r + 2 end;
  if !n >= 2 then !r + 1 else !r

(* Index layout: values < sub_buckets map identity to [0, sub_buckets);
   beyond that, each power-of-two range [2^k, 2^(k+1)) splits into
   sub_buckets sub-ranges. *)
let bucket_index t v =
  if v < t.sub_buckets then v
  else begin
    let msb = log2_int v in
    let shift = msb - t.sub_shift in
    let sub = (v lsr shift) - t.sub_buckets in
    (((msb - t.sub_shift) + 1) * t.sub_buckets) + sub
  end

(* Inverse: the [lo, hi) value range covered by bucket [i]. *)
let bucket_range t i =
  if i < t.sub_buckets then (i, i + 1)
  else begin
    let tier = (i / t.sub_buckets) - 1 in
    let sub = i mod t.sub_buckets in
    let base = (t.sub_buckets + sub) lsl tier in
    let width = 1 lsl tier in
    (base, base + width)
  end

let create ?(sub_buckets = 32) ~max_value () =
  if not (is_power_of_two sub_buckets) then
    invalid_arg "Histogram.create: sub_buckets must be a power of two";
  if max_value < 1 then invalid_arg "Histogram.create: max_value must be >= 1";
  let sub_shift = log2_int sub_buckets in
  let probe =
    {
      sub_buckets;
      sub_shift;
      counts = [||];
      n_buckets = 0;
      max_value;
      total = 0;
      max_recorded = 0;
    }
  in
  let n_buckets = bucket_index probe max_value + 1 in
  { probe with counts = Array.make n_buckets 0; n_buckets }

let record_n t v ~count =
  if count < 0 then invalid_arg "Histogram.record_n: negative count";
  let v = Int.max 0 (Int.min v t.max_value) in
  let i = bucket_index t v in
  t.counts.(i) <- t.counts.(i) + count;
  t.total <- t.total + count;
  if v > t.max_recorded then t.max_recorded <- v

let record t v = record_n t v ~count:1
let count t = t.total
let max_recorded t = t.max_recorded

let percentile t p =
  if p < 0.0 || p > 100.0 then invalid_arg "Histogram.percentile: p out of range";
  if t.total = 0 then 0
  else begin
    let target = int_of_float (ceil (p /. 100.0 *. float_of_int t.total)) in
    let target = max 1 target in
    let acc = ref 0 and result = ref 0 and found = ref false in
    (try
       for i = 0 to t.n_buckets - 1 do
         acc := !acc + t.counts.(i);
         if !acc >= target then begin
           let lo, hi = bucket_range t i in
           result := min (hi - 1) (max lo 0);
           found := true;
           raise Exit
         end
       done
     with Exit -> ());
    if !found then min !result t.max_recorded else t.max_recorded
  end

let mean t =
  if t.total = 0 then nan
  else begin
    let sum = ref 0.0 in
    for i = 0 to t.n_buckets - 1 do
      if t.counts.(i) > 0 then begin
        let lo, hi = bucket_range t i in
        let mid = (float_of_int lo +. float_of_int (hi - 1)) /. 2.0 in
        sum := !sum +. (mid *. float_of_int t.counts.(i))
      end
    done;
    !sum /. float_of_int t.total
  end

let iter_buckets t f =
  for i = 0 to t.n_buckets - 1 do
    if t.counts.(i) > 0 then begin
      let lo, hi = bucket_range t i in
      f ~lo ~hi ~count:t.counts.(i)
    end
  done

let fraction_above t v =
  if t.total = 0 then 0.0
  else begin
    let above = ref 0 in
    iter_buckets t (fun ~lo ~hi ~count ->
        if lo > v then above := !above + count
        else if hi - 1 > v then
          (* Bucket straddles v: apportion linearly. *)
          let width = hi - lo in
          let over = hi - 1 - v in
          above := !above + (count * over / width));
    float_of_int !above /. float_of_int t.total
  end

let clear t =
  Array.fill t.counts 0 t.n_buckets 0;
  t.total <- 0;
  t.max_recorded <- 0
