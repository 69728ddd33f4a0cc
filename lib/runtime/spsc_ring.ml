(* The cells are a plain array; a free cell holds [filler], an immediate
   that is never read back (the [Ring_deque] idiom), so building a ring
   allocates one block and a push allocates nothing.  The two atomic
   cursors order the plain cell accesses under the OCaml memory model:
   the producer writes the cell, then publishes [tail] with
   [Atomic.set]; the consumer reads [tail] with [Atomic.get] before it
   reads the cell, writes the filler back, then publishes [head], which
   the producer reads before it reuses the cell.  Each plain access
   happens-before the other side's next access to that cell, so the ring
   is data-race-free. *)
type 'a t = {
  cells : 'a array;
  capacity : int;
  head : int Atomic.t;  (** consumer cursor *)
  tail : int Atomic.t;  (** producer cursor *)
}

let filler () : 'a = Obj.magic 0

let create ~capacity =
  if capacity <= 0 then invalid_arg "Spsc_ring.create: capacity must be positive";
  {
    cells = Array.make capacity (filler ());
    capacity;
    head = Atomic.make 0;
    tail = Atomic.make 0;
  }

let try_push t v =
  let tail = Atomic.get t.tail in
  let head = Atomic.get t.head in
  if tail - head >= t.capacity then false
  else begin
    t.cells.(tail mod t.capacity) <- v;
    Atomic.set t.tail (tail + 1);
    true
  end

let try_pop t =
  let head = Atomic.get t.head in
  let tail = Atomic.get t.tail in
  if head >= tail then None
  else begin
    let i = head mod t.capacity in
    let v = t.cells.(i) in
    t.cells.(i) <- filler ();
    Atomic.set t.head (head + 1);
    Some v
  end

let length t = max 0 (Atomic.get t.tail - Atomic.get t.head)
let capacity t = t.capacity
