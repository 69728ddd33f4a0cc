(* Near tier: a ring of [near_cap] slots; logical position [i] (0 = the
   earliest entry) lives at [(near_head + i) land near_mask].  It holds
   keys and payloads only.  Every ring entry came straight from a push
   and a pushed entry goes after every entry with a key no larger than
   its own, so entries with equal keys sit in push order and the ring
   needs no seqs.  An insert moves the shorter side of that point by one
   slot: the entries after it towards the tail, or the entries before it
   towards the front, the head stepping back one slot.

   Far tier: a binary min-heap on (key, seq) in [far_*], sifted by
   moving a hole.  Its arrays stay empty until the near ring first
   overflows.

   Invariant: every near entry precedes every far entry.  A push that
   does not precede the far minimum goes to the heap with the next
   ascending seq ([next_seq], from 0).  When the ring is full, the later
   of the new entry and the ring's last one goes to the heap; an entry
   evicted from the ring precedes everything already there, so it takes
   its seq from [next_evicted], which counts down from -1.  Any two
   entries in the heap then compare on (key, seq) as they would on
   (key, push order). *)

let near_cap = 32
let near_mask = near_cap - 1

type t = {
  near_keys : int array;
  near_vals : int array;
  mutable near_head : int;
  mutable near_len : int;
  mutable far_keys : int array;
  mutable far_seqs : int array;
  mutable far_vals : int array;
  mutable far_len : int;
  mutable next_seq : int;
  mutable next_evicted : int;
}

let create () =
  {
    near_keys = Array.make near_cap 0;
    near_vals = Array.make near_cap 0;
    near_head = 0;
    near_len = 0;
    far_keys = [||];
    far_seqs = [||];
    far_vals = [||];
    far_len = 0;
    next_seq = 0;
    next_evicted = -1;
  }

let length t = t.near_len + t.far_len
let is_empty t = t.near_len = 0 && t.far_len = 0

let far_grow t =
  let cap = Array.length t.far_keys in
  let extend a =
    let b = Array.make (max 64 (2 * cap)) 0 in
    Array.blit a 0 b 0 cap;
    b
  in
  t.far_keys <- extend t.far_keys;
  t.far_seqs <- extend t.far_seqs;
  t.far_vals <- extend t.far_vals

let far_push t key seq v =
  if t.far_len = Array.length t.far_keys then far_grow t;
  let keys = t.far_keys and seqs = t.far_seqs and vals = t.far_vals in
  let i = ref t.far_len and rising = ref true in
  t.far_len <- t.far_len + 1;
  while !rising && !i > 0 do
    let p = (!i - 1) lsr 1 in
    let pk = Array.unsafe_get keys p in
    if key < pk || (key = pk && seq < Array.unsafe_get seqs p) then begin
      Array.unsafe_set keys !i pk;
      Array.unsafe_set seqs !i (Array.unsafe_get seqs p);
      Array.unsafe_set vals !i (Array.unsafe_get vals p);
      i := p
    end
    else rising := false
  done;
  Array.unsafe_set keys !i key;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set vals !i v

let far_pop t =
  let keys = t.far_keys and seqs = t.far_seqs and vals = t.far_vals in
  let v = vals.(0) in
  let len = t.far_len - 1 in
  t.far_len <- len;
  (* Sift the last entry down from the root, moving the hole. *)
  let k = keys.(len) and q = seqs.(len) and x = vals.(len) in
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
        Array.unsafe_set vals !i (Array.unsafe_get vals c);
        i := c
      end
      else sinking := false
    end
  done;
  keys.(!i) <- k;
  seqs.(!i) <- q;
  vals.(!i) <- x;
  v

(* Inserts into a ring with room.  A key below the middle entry's lands
   in the front half, so the entries before it step one slot towards the
   front; otherwise the entries after it step one slot towards the tail.
   The scan towards the tail stops at the head; the one towards the
   front stops at the middle entry at the latest. *)
let near_insert t key v =
  let keys = t.near_keys and vals = t.near_vals in
  let head = t.near_head and len = t.near_len in
  t.near_len <- len + 1;
  let shifting = ref true in
  let i =
    if len > 0 && key < Array.unsafe_get keys ((head + (len lsr 1)) land near_mask) then begin
      let i = ref ((head - 1) land near_mask) in
      t.near_head <- !i;
      while !shifting do
        let n = (!i + 1) land near_mask in
        let nk = Array.unsafe_get keys n in
        if nk <= key then begin
          Array.unsafe_set keys !i nk;
          Array.unsafe_set vals !i (Array.unsafe_get vals n);
          i := n
        end
        else shifting := false
      done;
      !i
    end
    else begin
      let i = ref ((head + len) land near_mask) in
      while !shifting && !i <> head do
        let p = (!i - 1) land near_mask in
        let pk = Array.unsafe_get keys p in
        if key < pk then begin
          Array.unsafe_set keys !i pk;
          Array.unsafe_set vals !i (Array.unsafe_get vals p);
          i := p
        end
        else shifting := false
      done;
      !i
    end
  in
  Array.unsafe_set keys i key;
  Array.unsafe_set vals i v

(* A pushed entry that goes straight to the heap: it follows every entry
   there with an equal key, so it takes the next ascending seq. *)
let[@inline] far_push_new t key v =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  far_push t key seq v

let push t ~key v =
  if t.far_len > 0 && key >= Array.unsafe_get t.far_keys 0 then far_push_new t key v
  else if t.near_len < near_cap then near_insert t key v
  else begin
    let last = (t.near_head + near_mask) land near_mask in
    if key >= t.near_keys.(last) then far_push_new t key v
    else begin
      let seq = t.next_evicted in
      t.next_evicted <- seq - 1;
      far_push t t.near_keys.(last) seq t.near_vals.(last);
      t.near_len <- near_mask;
      near_insert t key v
    end
  end

let top_key t =
  if t.near_len > 0 then Array.unsafe_get t.near_keys t.near_head
  else if t.far_len > 0 then t.far_keys.(0)
  else invalid_arg "Event_queue.top_key: empty queue"

let pop t =
  if t.near_len > 0 then begin
    let head = t.near_head in
    t.near_head <- (head + 1) land near_mask;
    t.near_len <- t.near_len - 1;
    Array.unsafe_get t.near_vals head
  end
  else if t.far_len > 0 then far_pop t
  else invalid_arg "Event_queue.pop: empty queue"

let clear t =
  t.near_len <- 0;
  t.far_len <- 0
