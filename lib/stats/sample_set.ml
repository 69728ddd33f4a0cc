(* Samples live in segments that are never copied: [cur] is the segment
   being filled up to [pos], and [full] holds the earlier ones, newest
   first.  The first [add] allocates [first_segment] floats and each
   later segment doubles the last, so storage stays within twice the
   sample count. *)
type t = { mutable cur : float array; mutable pos : int; mutable full : float array list }

let first_segment = 1024
let create () = { cur = [||]; pos = 0; full = [] }

let new_segment t =
  let len = Array.length t.cur in
  if len > 0 then t.full <- t.cur :: t.full;
  t.cur <- Array.create_float (if len = 0 then first_segment else 2 * len);
  t.pos <- 0

let[@inline] add t x =
  if t.pos = Array.length t.cur then new_segment t;
  t.cur.(t.pos) <- x;
  t.pos <- t.pos + 1

let count t = List.fold_left (fun n seg -> n + Array.length seg) t.pos t.full

(* [f seg len] on each segment's live prefix, oldest first. *)
let iter_segments f t =
  List.iter (fun seg -> f seg (Array.length seg)) (List.rev t.full);
  f t.cur t.pos

let fold f init t =
  let acc = ref init in
  iter_segments
    (fun seg len ->
      for i = 0 to len - 1 do
        acc := f !acc seg.(i)
      done)
    t;
  !acc

let mean t = if count t = 0 then nan else fold ( +. ) 0.0 t /. float_of_int (count t)

let sorted_union sets =
  let all = Array.create_float (Array.fold_left (fun n s -> n + count s) 0 sets) in
  let off = ref 0 in
  Array.iter
    (iter_segments (fun seg len ->
         Array.blit seg 0 all !off len;
         off := !off + len))
    sets;
  Array.sort compare all;
  all

let to_sorted_array t = sorted_union [| t |]

let union_percentile sets p =
  if p < 0.0 || p > 100.0 then invalid_arg "Sample_set.percentile: p out of range";
  let sorted = sorted_union sets in
  let n = Array.length sorted in
  (* Nearest-rank: smallest k with k/n >= p/100, clamped to [0, n-1]. *)
  let k = int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1 in
  if n = 0 then nan else sorted.(Int.max 0 (Int.min (n - 1) k))

let percentile t p = union_percentile [| t |] p
