let ns_per_us = 1_000
let ns_per_ms = 1_000_000
let ns_per_s = 1_000_000_000
let us f = int_of_float (Float.round (f *. float_of_int ns_per_us))
let ms f = int_of_float (Float.round (f *. float_of_int ns_per_ms))
let s f = int_of_float (Float.round (f *. float_of_int ns_per_s))
let to_us ns = float_of_int ns /. float_of_int ns_per_us
let to_s ns = float_of_int ns /. float_of_int ns_per_s
let now_ns () = Int64.to_int (Monotonic_clock.now ())
let default_ghz = 2.1

let cycles_to_ns ?(ghz = default_ghz) c =
  int_of_float (Float.round (float_of_int c /. ghz))

let ns_to_cycles ?(ghz = default_ghz) ns =
  int_of_float (Float.round (float_of_int ns *. ghz))

let pp_ns fmt ns =
  let f = float_of_int ns in
  if ns < 1_000 then Format.fprintf fmt "%dns" ns
  else if ns < ns_per_ms then Format.fprintf fmt "%.1fus" (f /. 1e3)
  else if ns < ns_per_s then Format.fprintf fmt "%.2fms" (f /. 1e6)
  else Format.fprintf fmt "%.3fs" (f /. 1e9)
