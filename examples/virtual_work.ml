(* Simulated CPU work for the examples that run requests on one
   [Tq_runtime.Task_worker] over a virtual clock. *)

(* [work clock ns] credits [ns] of work to [clock] in 250 ns steps and
   probes before each step, like a loop instrumented at that
   granularity: the worker preempts the request at quantum boundaries,
   and a request whose work ends exactly on one finishes there. *)
let work clock ns =
  let remaining = ref ns in
  while !remaining > 0 do
    Tq_runtime.Probe_api.probe ();
    let step = min 250 !remaining in
    Tq_runtime.Clock.advance clock step;
    remaining := !remaining - step
  done
