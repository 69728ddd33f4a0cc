(* [data] stays empty until the first push, which allocates [capacity]
   slots; each later growth doubles. *)
type t = { mutable data : float array; mutable len : int; capacity : int }

let create ?(capacity = 16) () = { data = [||]; len = 0; capacity = Int.max capacity 1 }

let length t = t.len

let grow t =
  let cap = Array.length t.data in
  let data = Array.make (if cap = 0 then t.capacity else 2 * cap) 0.0 in
  Array.blit t.data 0 data 0 t.len;
  t.data <- data

let[@inline] push t x =
  if t.len = Array.length t.data then grow t;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let check_bounds t i =
  if i < 0 || i >= t.len then invalid_arg "Fvec: index out of bounds"

let get t i =
  check_bounds t i;
  t.data.(i)

let set t i x =
  check_bounds t i;
  t.data.(i) <- x

let clear t = t.len <- 0
let to_array t = Array.sub t.data 0 t.len

let sorted_copy t =
  let a = to_array t in
  Array.sort compare a;
  a

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let fold f init t =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let mean t =
  if t.len = 0 then nan else fold ( +. ) 0.0 t /. float_of_int t.len
