(** A job: one request being executed by the server.

    [remaining_ns] starts at the *effective* service time (true service
    inflated by the instrumentation overhead of the system under test)
    and is decremented as quanta execute.  [service_ns] stays the true
    service time so slowdown is measured against the uninstrumented
    runtime, as in the paper. *)

type t = {
  id : int;
  class_idx : int;
  service_ns : int;
  arrival_ns : int;
  initial_effective_ns : int;  (** remaining_ns at admission *)
  mutable remaining_ns : int;
  mutable serviced_quanta : int;
}

(** [of_request ~probe_overhead_frac req] admits a request, inflating the
    executable work by the probing overhead fraction. *)
val of_request : probe_overhead_frac:float -> Tq_workload.Arrivals.request -> t

(** [finished j] is true when no work remains. *)
val finished : t -> bool

(** [attained_ns j] — effective service received so far; what
    least-attained-service scheduling orders by. *)
val attained_ns : t -> int

(** [none] fills the in-flight slot of a core that has run no slice yet;
    it is never scheduled. *)
val none : t
