type t = { mutable data : int array; mutable len : int }

let create ?(capacity = 16) () = { data = Array.make (max capacity 1) 0; len = 0 }
let length t = t.len

let grow t =
  let data = Array.make (2 * Array.length t.data) 0 in
  Array.blit t.data 0 data 0 t.len;
  t.data <- data

let push t x =
  if t.len = Array.length t.data then grow t;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let check_bounds t i =
  if i < 0 || i >= t.len then invalid_arg "Ivec: index out of bounds"

let get t i =
  check_bounds t i;
  t.data.(i)

let set t i x =
  check_bounds t i;
  t.data.(i) <- x

let to_array t = Array.sub t.data 0 t.len
