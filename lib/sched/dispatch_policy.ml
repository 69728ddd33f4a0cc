module Prng = Tq_util.Prng

type t = Jsq_msq | Jsq_random | Random | Power_of_two

type chooser = { policy : t; rng : Prng.t }

let make_chooser policy ~rng = { policy; rng }

let no_alive () = invalid_arg "Dispatch_policy.choose: no alive workers"

let alive_count alive =
  let m = ref 0 in
  for i = 0 to Array.length alive - 1 do
    if alive.(i) then incr m
  done;
  if !m = 0 then no_alive ();
  !m

(* The [k]-th alive index, counting from 0 in index order.  Random draws
   range over the alive cores this way, so with every core alive a draw
   of [k] is core [k] and a seed picks the same cores as a draw over all
   [n] cores: fault-free runs, and the figures pinned on them, do not
   depend on the mask. *)
let rec nth_alive alive k i =
  if not alive.(i) then nth_alive alive k (i + 1)
  else if k = 0 then i
  else nth_alive alive (k - 1) (i + 1)

(* JSQ with a uniform tie among the least-loaded alive cores; a lone
   minimum takes no draw.  The ties are counted from the highest index,
   the order the pinned figures were drawn in. *)
let jsq_random rng ~alive workers =
  let best = ref max_int and ties = ref 0 in
  for i = 0 to Array.length workers - 1 do
    if alive.(i) then begin
      let load = Worker.unfinished workers.(i) in
      if load < !best then begin
        best := load;
        ties := 1
      end
      else if load = !best then incr ties
    end
  done;
  if !ties = 0 then no_alive ();
  let k = ref (if !ties = 1 then 0 else Prng.int rng !ties) in
  let i = ref (Array.length workers) in
  while !k >= 0 do
    decr i;
    if alive.(!i) && Worker.unfinished workers.(!i) = !best then decr k
  done;
  !i

let choose c ~alive workers =
  match c.policy with
  | Jsq_msq ->
      let i = Worker.jsq_msq ~alive workers in
      if i < 0 then no_alive ();
      i
  | Jsq_random -> jsq_random c.rng ~alive workers
  | Random -> nth_alive alive (Prng.int c.rng (alive_count alive)) 0
  | Power_of_two ->
      let m = alive_count alive in
      let ka = Prng.int c.rng m in
      let kb = if m = 1 then ka else (ka + 1 + Prng.int c.rng (m - 1)) mod m in
      let a = nth_alive alive ka 0 and b = nth_alive alive kb 0 in
      let load_a = Worker.unfinished workers.(a)
      and load_b = Worker.unfinished workers.(b) in
      if load_a < load_b then a
      else if load_b < load_a then b
      else if Prng.bool c.rng then a
      else b
