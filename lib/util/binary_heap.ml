type 'a t = {
  mutable keys : int array; (* primary priority *)
  mutable seqs : int array; (* tie-break: insertion order *)
  mutable vals : 'a array;
  mutable len : int;
  mutable next_seq : int;
  dummy : 'a;
}

let create ?(capacity = 64) ~dummy () =
  let capacity = max capacity 1 in
  {
    keys = Array.make capacity 0;
    seqs = Array.make capacity 0;
    vals = Array.make capacity dummy;
    len = 0;
    next_seq = 0;
    dummy;
  }

let length t = t.len
let is_empty t = t.len = 0

let grow t =
  let cap = Array.length t.keys in
  let keys = Array.make (2 * cap) 0 in
  let seqs = Array.make (2 * cap) 0 in
  let vals = Array.make (2 * cap) t.dummy in
  Array.blit t.keys 0 keys 0 t.len;
  Array.blit t.seqs 0 seqs 0 t.len;
  Array.blit t.vals 0 vals 0 t.len;
  t.keys <- keys;
  t.seqs <- seqs;
  t.vals <- vals

(* (key, seq) lexicographic order *)
let less t i j =
  t.keys.(i) < t.keys.(j) || (t.keys.(i) = t.keys.(j) && t.seqs.(i) < t.seqs.(j))

let swap t i j =
  let k = t.keys.(i) and s = t.seqs.(i) and v = t.vals.(i) in
  t.keys.(i) <- t.keys.(j);
  t.seqs.(i) <- t.seqs.(j);
  t.vals.(i) <- t.vals.(j);
  t.keys.(j) <- k;
  t.seqs.(j) <- s;
  t.vals.(j) <- v

let push t ~key v =
  if t.len = Array.length t.keys then grow t;
  let i = ref t.len in
  t.keys.(!i) <- key;
  t.seqs.(!i) <- t.next_seq;
  t.vals.(!i) <- v;
  t.next_seq <- t.next_seq + 1;
  t.len <- t.len + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if less t !i parent then begin
      swap t !i parent;
      i := parent
    end
    else continue := false
  done

let top_key t =
  if t.len = 0 then invalid_arg "Binary_heap.top_key: empty heap";
  t.keys.(0)

let pop t =
  if t.len = 0 then invalid_arg "Binary_heap.pop: empty heap";
  let v = t.vals.(0) in
  t.len <- t.len - 1;
  if t.len > 0 then begin
    t.keys.(0) <- t.keys.(t.len);
    t.seqs.(0) <- t.seqs.(t.len);
    t.vals.(0) <- t.vals.(t.len)
  end;
  t.vals.(t.len) <- t.dummy;
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < t.len && less t l !smallest then smallest := l;
    if r < t.len && less t r !smallest then smallest := r;
    if !smallest <> !i then begin
      swap t !i !smallest;
      i := !smallest
    end
    else continue := false
  done;
  v

let clear t =
  Array.fill t.vals 0 t.len t.dummy;
  t.len <- 0
