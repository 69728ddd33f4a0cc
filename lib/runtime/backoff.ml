type t = {
  spin_limit : int;
  park_s : float;
  mutable misses : int;
}

let create ?(spin_limit = 200) ?(park_s = 5e-5) () =
  if spin_limit < 0 then invalid_arg "Backoff.create: spin_limit must be >= 0";
  if park_s <= 0.0 then invalid_arg "Backoff.create: park_s must be positive";
  { spin_limit; park_s; misses = 0 }

let reset t = t.misses <- 0

let once t =
  t.misses <- t.misses + 1;
  if t.misses <= t.spin_limit then Domain.cpu_relax ()
  else
    (* Unix.sleepf frees the core.  It does not take the domain out of
       minor collections: its backup thread still has to wake and take
       part in each one (DESIGN.md, "Live serving"). *)
    try Unix.sleepf t.park_s with Unix.Unix_error (Unix.EINTR, _, _) -> ()
