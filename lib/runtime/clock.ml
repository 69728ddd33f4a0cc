type t = Wall | Virtual of int ref

let wall () = Wall
let virtual_ () = Virtual (ref 0)

let now_ns = function
  | Wall -> Tq_util.Time_unit.now_ns ()
  | Virtual r -> !r

let advance t ns =
  match t with
  | Wall -> invalid_arg "Clock.advance: wall clocks advance themselves"
  | Virtual r ->
      if ns < 0 then invalid_arg "Clock.advance: negative step";
      r := !r + ns
