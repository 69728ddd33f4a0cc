(* The 256-bit xoshiro256** state lives in 32 bytes (s0..s3, 8 bytes
   each, little-endian).  Int64 fields of a record are boxed, so every
   update of a { mutable s0 : int64; ... } state allocated; reads and
   writes through [Bytes.get_int64_le]/[set_int64_le] are unboxed by the
   compiler, and a draw that ends in an [int] allocates nothing. *)
type t = Bytes.t

let ( +% ) = Int64.add
let ( *% ) = Int64.mul
let ( ^% ) = Int64.logxor

let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* splitmix64: expands a 64-bit seed into the 256-bit xoshiro state. *)
let splitmix64_next state =
  state := !state +% 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = (z ^% Int64.shift_right_logical z 30) *% 0xBF58476D1CE4E5B9L in
  let z = (z ^% Int64.shift_right_logical z 27) *% 0x94D049BB133111EBL in
  z ^% Int64.shift_right_logical z 31

let create ~seed =
  let state = ref seed in
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    Bytes.set_int64_le t (8 * i) (splitmix64_next state)
  done;
  t

let copy = Bytes.copy

(* One xoshiro256** step.  Inlined into every caller so the int64
   result stays unboxed until a caller converts it. *)
let[@inline always] next t =
  let s0 = Bytes.get_int64_le t 0
  and s1 = Bytes.get_int64_le t 8
  and s2 = Bytes.get_int64_le t 16
  and s3 = Bytes.get_int64_le t 24 in
  let result = rotl (s1 *% 5L) 7 *% 9L in
  let u = Int64.shift_left s1 17 in
  let s2 = s2 ^% s0 in
  let s3 = s3 ^% s1 in
  let s1 = s1 ^% s2 in
  let s0 = s0 ^% s3 in
  let s2 = s2 ^% u in
  Bytes.set_int64_le t 0 s0;
  Bytes.set_int64_le t 8 s1;
  Bytes.set_int64_le t 16 s2;
  Bytes.set_int64_le t 24 (rotl s3 45);
  result

let bits64 t = next t

let split t = create ~seed:(next t)

(* Non-negative 62-bit value: safe to convert to OCaml int. *)
let[@inline always] bits62 t = Int64.to_int (Int64.shift_right_logical (next t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let mask_bound = bound - 1 in
  if bound land mask_bound = 0 then bits62 t land mask_bound
  else begin
    let limit = 0x3FFF_FFFF_FFFF_FFFF / bound * bound in
    let v = ref (bits62 t) in
    while !v >= limit do
      v := bits62 t
    done;
    !v mod bound
  end

let int_in_range t ~lo ~hi =
  if lo > hi then invalid_arg "Prng.int_in_range: lo > hi";
  lo + int t (hi - lo + 1)

let[@inline always] unit_float t =
  (* 53 uniform bits -> [0, 1). *)
  let v = Int64.to_int (Int64.shift_right_logical (next t) 11) in
  float_of_int v *. (1.0 /. 9007199254740992.0)

let float t bound = unit_float t *. bound

let bool t = Int64.compare (Int64.logand (next t) 1L) 0L <> 0

let bernoulli t ~p = unit_float t < p

(* Uniform on (0, 1): redraws an exact zero so [log] stays finite. *)
let[@inline always] positive_uniform t =
  let u = ref (unit_float t) in
  while not (!u > 0.0) do
    u := unit_float t
  done;
  !u

let[@inline] exponential t ~mean = -.mean *. log (positive_uniform t)

(* Rounded here, so a caller that wants an int gets no boxed float. *)
let exponential_int t ~mean = int_of_float (Float.round (exponential t ~mean))

let gaussian t =
  let u1 = positive_uniform t in
  let u2 = unit_float t in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

let lognormal t ~mu ~sigma = exp (mu +. (sigma *. gaussian t))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let choose_weighted t weights =
  let total = Array.fold_left ( +. ) 0.0 weights in
  if total <= 0.0 then invalid_arg "Prng.choose_weighted: weights must sum to > 0";
  let target = float t total in
  let n = Array.length weights in
  let rec scan i acc =
    if i >= n - 1 then n - 1
    else
      let acc = acc +. weights.(i) in
      if target < acc then i else scan (i + 1) acc
  in
  scan 0 0.0
