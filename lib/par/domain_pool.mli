(** Bounded task pool over OCaml 5 Domains.

    Worker domains claim task indices from one shared atomic cursor
    until it passes the last task; tasks are coarse (milliseconds to
    seconds), so one [fetch_and_add] per task is all the scheduling
    they need.  Results land in an output array indexed by task
    position, so the merged output is identical no matter which domain
    ran which task or in what order they finished. *)

(** Execution report of one {!run}: how the work spread over domains. *)
type stats = {
  jobs : int;  (** worker domains actually used (clamped to task count) *)
  per_domain_tasks : int array;  (** tasks completed by each domain *)
  per_domain_busy_ns : int array;
      (** wall-clock nanoseconds each domain spent inside task bodies —
          the utilization numerator; divide by [wall_ns] for a
          per-domain busy fraction *)
  wall_ns : int;  (** end-to-end wall-clock time of the pool run *)
}

(** [run ?jobs tasks] executes every task and returns their results in
    task order plus the execution {!stats}.  [jobs] defaults to
    [Domain.recommended_domain_count ()] and is clamped to
    [[1, Array.length tasks]]; [jobs = 1] runs inline on the calling
    domain with no Domain spawned.  Tasks must be thread-safe (no
    shared mutable state) and must not print.  If a task raises, the
    first such exception (in task order) is re-raised after all tasks
    have been joined. *)
val run : ?jobs:int -> (unit -> 'a) array -> 'a array * stats

(** [map ?jobs f arr] is [run] over [f] applied to each element,
    discarding the stats: a drop-in parallel [Array.map]. *)
val map : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
