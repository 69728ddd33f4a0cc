type t = { sleeping : bool Atomic.t; lock : Mutex.t; cond : Condition.t }

let create () =
  { sleeping = Atomic.make false; lock = Mutex.create (); cond = Condition.create () }

let park t ready =
  Mutex.lock t.lock;
  Atomic.set t.sleeping true;
  if not (ready ()) then Condition.wait t.cond t.lock;
  Atomic.set t.sleeping false;
  Mutex.unlock t.lock

let wake t =
  if Atomic.get t.sleeping then begin
    Mutex.lock t.lock;
    Condition.signal t.cond;
    Mutex.unlock t.lock
  end

let sleeping t = Atomic.get t.sleeping
