(* The capacity is a power of two, so an index wraps with a mask.
   Elements sit in the array directly; a free slot holds [filler], an
   immediate that is never read back.  Because the filler is not a
   float, [Array.make] never builds a flat float array, so a ['a t] of
   floats stores boxed floats like any other element. *)
type 'a t = {
  mutable data : 'a array;
  mutable head : int; (* index of front element *)
  mutable len : int;
}

let filler () : 'a = Obj.magic 0

let create ?(capacity = 8) () =
  let rec pow2 c = if c >= capacity then c else pow2 (2 * c) in
  { data = Array.make (pow2 1) (filler ()); head = 0; len = 0 }

let length t = t.len
let is_empty t = t.len = 0
let[@inline] index t i = (t.head + i) land (Array.length t.data - 1)

let grow t =
  let cap = Array.length t.data in
  let data = Array.make (2 * cap) (filler ()) in
  for i = 0 to t.len - 1 do
    data.(i) <- t.data.(index t i)
  done;
  t.data <- data;
  t.head <- 0

let push_back t x =
  if t.len = Array.length t.data then grow t;
  t.data.(index t t.len) <- x;
  t.len <- t.len + 1

let push_front t x =
  if t.len = Array.length t.data then grow t;
  t.head <- index t (-1);
  t.data.(t.head) <- x;
  t.len <- t.len + 1

let pop_front t =
  if t.len = 0 then invalid_arg "Ring_deque.pop_front: empty deque";
  let x = t.data.(t.head) in
  t.data.(t.head) <- filler ();
  t.head <- index t 1;
  t.len <- t.len - 1;
  x

let pop_back t =
  if t.len = 0 then invalid_arg "Ring_deque.pop_back: empty deque";
  let i = index t (t.len - 1) in
  let x = t.data.(i) in
  t.data.(i) <- filler ();
  t.len <- t.len - 1;
  x

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Ring_deque.get: index out of bounds";
  t.data.(index t i)

let iter f t =
  for i = 0 to t.len - 1 do
    f (get t i)
  done

let clear t =
  Array.fill t.data 0 (Array.length t.data) (filler ());
  t.head <- 0;
  t.len <- 0

let to_list t =
  let rec build i acc = if i < 0 then acc else build (i - 1) (get t i :: acc) in
  build (t.len - 1) []
