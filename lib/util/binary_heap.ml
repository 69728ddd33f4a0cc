(* Heap position [i] holds the priority [(keys.(i), seqs.(i))] and the
   payload slot [slots.(i)]; the payload itself sits in [vals.(slot)].
   A sift moves three ints per level and never touches [vals], so the
   only payload stores are one in [push] and one in [pop] (each a
   [caml_modify] on a polymorphic array).

   Slots are recycled without a separate free list: [slots.(0 .. fresh-1)]
   is always a permutation of [0 .. fresh-1], the first [len] entries
   being the heap and the rest a stack of released slots whose top is
   [slots.(len)].  Slots from [fresh] up have never been used. *)
type 'a t = {
  mutable keys : int array; (* primary priority *)
  mutable seqs : int array; (* tie-break: insertion order *)
  mutable slots : int array; (* heap position -> payload slot *)
  mutable vals : 'a array; (* payload slot -> payload *)
  mutable len : int;
  mutable fresh : int;
  mutable next_seq : int;
  dummy : 'a;
}

let create ?(capacity = 64) ~dummy () =
  let capacity = max capacity 1 in
  {
    keys = Array.make capacity 0;
    seqs = Array.make capacity 0;
    slots = Array.make capacity 0;
    vals = Array.make capacity dummy;
    len = 0;
    fresh = 0;
    next_seq = 0;
    dummy;
  }

let length t = t.len
let is_empty t = t.len = 0

(* Only called when full, so every slot is in use and [fresh = len]. *)
let grow t =
  let cap = Array.length t.keys in
  let extend a fill =
    let b = Array.make (2 * cap) fill in
    Array.blit a 0 b 0 cap;
    b
  in
  t.keys <- extend t.keys 0;
  t.seqs <- extend t.seqs 0;
  t.slots <- extend t.slots 0;
  t.vals <- extend t.vals t.dummy

let push t ~key v =
  if t.len = Array.length t.keys then grow t;
  let len = t.len in
  let slot =
    if len < t.fresh then t.slots.(len)
    else begin
      t.fresh <- len + 1;
      len
    end
  in
  t.vals.(slot) <- v;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.len <- len + 1;
  (* The new entry has the largest seq so far, so it rises only past
     strictly larger keys: equal keys stay FIFO. *)
  let keys = t.keys and seqs = t.seqs and slots = t.slots in
  let i = ref len and rising = ref true in
  while !rising && !i > 0 do
    let p = (!i - 1) lsr 1 in
    let pk = Array.unsafe_get keys p in
    if key < pk then begin
      Array.unsafe_set keys !i pk;
      Array.unsafe_set seqs !i (Array.unsafe_get seqs p);
      Array.unsafe_set slots !i (Array.unsafe_get slots p);
      i := p
    end
    else rising := false
  done;
  Array.unsafe_set keys !i key;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set slots !i slot

let top_key t =
  if t.len = 0 then invalid_arg "Binary_heap.top_key: empty heap";
  t.keys.(0)

let pop t =
  if t.len = 0 then invalid_arg "Binary_heap.pop: empty heap";
  let keys = t.keys and seqs = t.seqs and slots = t.slots in
  let slot = slots.(0) in
  let v = t.vals.(slot) in
  t.vals.(slot) <- t.dummy;
  let len = t.len - 1 in
  t.len <- len;
  (* Sift the last entry down from the root, moving the hole. *)
  let k = keys.(len) and q = seqs.(len) and s = slots.(len) in
  let i = ref 0 and sinking = ref true in
  while !sinking do
    let l = (2 * !i) + 1 in
    if l >= len then sinking := false
    else begin
      let r = l + 1 in
      let c =
        if r < len then begin
          let lk = Array.unsafe_get keys l and rk = Array.unsafe_get keys r in
          if rk < lk || (rk = lk && Array.unsafe_get seqs r < Array.unsafe_get seqs l) then r
          else l
        end
        else l
      in
      let ck = Array.unsafe_get keys c and cq = Array.unsafe_get seqs c in
      if ck < k || (ck = k && cq < q) then begin
        Array.unsafe_set keys !i ck;
        Array.unsafe_set seqs !i cq;
        Array.unsafe_set slots !i (Array.unsafe_get slots c);
        i := c
      end
      else sinking := false
    end
  done;
  keys.(!i) <- k;
  seqs.(!i) <- q;
  slots.(!i) <- s;
  (* Position [len] is now the top of the released-slot stack. *)
  slots.(len) <- slot;
  v

let clear t =
  Array.fill t.vals 0 t.fresh t.dummy;
  t.len <- 0
