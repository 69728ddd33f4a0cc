(* The observability context threaded through a scheduler run: one span
   collection plus one metric registry.  [disabled ()] gives the
   zero-cost default — Span.null (one branch per would-be record, no
   allocation) and a private registry nobody reads; subsystems can
   therefore register and bump unconditionally.

   The fixed-interval time-series sampler lives alongside, but is owned
   by the run driver (Tq_sched.Experiment) because only it knows the
   sampling clock; see [Experiment.run ?obs]. *)

type t = {
  spans : Span.t;
  counters : Counters.t;
  sample_interval_ns : int;  (** time-series sampling period (virtual time) *)
}

(* A simulated 16-core system registers about 18 sinks, each growing
   to at most 16384 five-word records: a 2 ms trace at 70% load whole,
   and about 12 MB of columns for a long traced run. *)
let create ?(sample_interval_ns = 10_000) () =
  {
    spans = Span.create ~capacity_per_sink:16_384 ();
    counters = Counters.create ();
    sample_interval_ns;
  }

(* Counters without spans: what a worker domain threads through
   subsystems that take an [?obs]. *)
let of_counters counters = { spans = Span.null; counters; sample_interval_ns = 10_000 }
let disabled () = of_counters (Counters.create ())
