(* A lock-free pool of fixed-size byte buffers for the reply framing
   hot path.

   Workers acquire a buffer, encode a response frame into it, and ship
   it across the reply ring; the dispatcher lane blits the frame
   into the connection's write accumulator and releases the buffer.
   Acquire and release therefore happen on different domains, so the
   free list is a Treiber stack over [Atomic.compare_and_set] — the GC
   makes the classic ABA hazard moot (a popped cons cell is never
   recycled while another thread still holds a reference to it).

   The win is minor-GC pressure: a pooled frame is one long-lived
   [Bytes] reused for the server's lifetime instead of a fresh
   allocation per reply (the PR 6 breakdown showed reply framing and
   flushing at ~74% of sojourn on a shared core).  Each release still
   conses one list cell; that is three words against a frame buffer's
   hundreds. *)

type t = {
  buf_bytes : int;
  max_pooled : int;
  free : bytes list Atomic.t;
  pooled : int Atomic.t;  (* approximate stack depth, governs discards *)
  scrub : bool;
  hits : int Atomic.t;
  misses : int Atomic.t;
  oversize : int Atomic.t;
  discarded : int Atomic.t;
}

let min_buf_bytes = 64

let create ?(max_pooled = 1024) ?(scrub = false) ~buf_bytes () =
  if buf_bytes < min_buf_bytes then
    invalid_arg (Printf.sprintf "Pool.create: buf_bytes must be >= %d" min_buf_bytes);
  if max_pooled < 0 then invalid_arg "Pool.create: max_pooled must be >= 0";
  {
    buf_bytes;
    max_pooled;
    free = Atomic.make [];
    pooled = Atomic.make 0;
    scrub;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    oversize = Atomic.make 0;
    discarded = Atomic.make 0;
  }

let buf_bytes t = t.buf_bytes

let rec pop t =
  match Atomic.get t.free with
  | [] -> None
  | b :: rest as old ->
      if Atomic.compare_and_set t.free old rest then begin
        Atomic.decr t.pooled;
        Some b
      end
      else pop t

let acquire t ~len =
  if len < 0 then invalid_arg "Pool.acquire: negative length";
  if len > t.buf_bytes then begin
    (* Oversize frames (multi-MB stats bodies) fall back to an exact
       fresh allocation; [release] recognises and drops them. *)
    Atomic.incr t.oversize;
    Bytes.create len
  end
  else
    match pop t with
    | Some b ->
        Atomic.incr t.hits;
        b
    | None ->
        Atomic.incr t.misses;
        Bytes.create t.buf_bytes

let rec push t b =
  let old = Atomic.get t.free in
  if not (Atomic.compare_and_set t.free old (b :: old)) then push t b
  else Atomic.incr t.pooled

let release t b =
  if Bytes.length b <> t.buf_bytes || Atomic.get t.pooled >= t.max_pooled then
    (* wrong size (an oversize fallback) or the pool is full: let the
       GC have it — correctness never depends on a successful return *)
    Atomic.incr t.discarded
  else begin
    if t.scrub then Bytes.fill b 0 t.buf_bytes '\000';
    push t b
  end

let pooled t = Atomic.get t.pooled
let hits t = Atomic.get t.hits
let misses t = Atomic.get t.misses
let oversize t = Atomic.get t.oversize
let discarded t = Atomic.get t.discarded

let fill_counters t reg =
  let c name v = Tq_obs.Counters.set (Tq_obs.Counters.gauge reg name) (float_of_int v) in
  c "serve.pool.pooled" (pooled t);
  c "serve.pool.hits" (hits t);
  c "serve.pool.misses" (misses t);
  c "serve.pool.oversize" (oversize t);
  c "serve.pool.discarded" (discarded t)
