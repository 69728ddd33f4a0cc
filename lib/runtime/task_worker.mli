(** A worker core's scheduler loop over task fibers.

    Mirrors the paper's scheduler coroutine: keeps a run queue of busy
    task fibers, resumes the head for one quantum (binding the probe
    context first, like binding [call_the_yield]), and moves yielded
    tasks to the tail — processor sharing.  Maintains the finished-jobs
    and serviced-quanta counters the dispatcher reads.

    Each task's per-task record is also its {!residency}: the worker
    stamps its pickup, first-run start, summed run time and last
    quantum end on its clock, counts its quanta, and takes the growth of
    the stall count and the GC pause clock over its stay.  [on_finish]
    receives the record, so a finished task carries every boundary the
    live stage decomposition needs from the worker side. *)

type task = {
  task_id : int;
  class_idx : int;  (** request class, for per-class quantum lookup *)
  work : wid:int -> unit;
      (** called with the id of the worker that executes it, so the
          job can resolve per-worker state (app instance, reply ring)
          when it runs *)
}

(** A task's stay on this worker, on the worker's clock.  Every field
    is final once the task has finished, which is when [on_finish]
    sees it; the worker never touches the record after that. *)
type residency = private {
  task : task;
  fiber : unit Fiber.t;
  pickup_ns : int;  (** when {!submit} took the task *)
  mutable first_ns : int;  (** start of the first quantum; -1 before it *)
  mutable run_ns : int;  (** summed quantum lengths *)
  mutable last_end_ns : int;  (** end of the latest quantum; -1 before it *)
  mutable quanta : int;  (** quanta run *)
  mutable stalls : int;  (** stalls the [stalls] counter gained over the stay *)
  mutable gc_pause_ns : int;  (** growth of the [gc_pause_ns] clock over the stay *)
}

type t

(** [obs] supplies the counter registry (the default is a throwaway
    one); spans are the hooks' business.  [wid] is also what each
    task's [work ~wid] receives when it runs here.  Always-on profiling
    dists land in the registry: [runtime.quantum_len_ns] (wall length
    of every executed slice) and [runtime.overshoot_ns] (how far a
    forced yield ran past its quantum — the probe-granularity tax).
    [track_probes] additionally registers [runtime.probe_gap_ns] and
    arms probe-cadence tracking on the worker's context
    ({!Probe_api.set_cadence}).
    [on_pickup] is called from {!submit} with the task id and the
    pickup stamp.  [on_quantum] is called after every slice, before
    [on_finish], with the task id, wall start/end and whether the task
    completed — the hook the live server uses to emit per-request
    quantum spans and detect stalls.
    [class_quantum], when given, is consulted before every slice with
    the head task's [class_idx] and its result replaces the probe
    context's quantum for that slice — the live actuation point for
    feedback-controlled per-class quanta (the closure typically reads
    an [Atomic] the dispatcher writes).
    [stalls] (the counter the caller's stall detector bumps) and
    [gc_pause_ns] (this domain's cumulative GC pause clock) are read at
    pickup and at finish to fill {!residency}'s [stalls] and
    [gc_pause_ns]; without them those fields stay 0. *)
val create :
  ?obs:Tq_obs.Obs.t ->
  ?wid:int ->
  ?track_probes:bool ->
  ?on_pickup:(task_id:int -> now_ns:int -> unit) ->
  ?on_quantum:(task_id:int -> start_ns:int -> end_ns:int -> finished:bool -> unit) ->
  ?class_quantum:(class_idx:int -> int) ->
  ?stalls:Tq_obs.Counters.counter ->
  ?gc_pause_ns:(unit -> int) ->
  clock:Clock.t ->
  quantum_ns:int ->
  on_finish:(residency -> unit) ->
  unit ->
  t

(** [submit t task] enqueues a new task (wraps it in a fresh fiber) and
    stamps its pickup. *)
val submit : t -> task -> unit

(** [run_slice t] executes one quantum of the head task; false when the
    queue is empty. *)
val run_slice : t -> bool

(** [run_until_idle t] drains the queue completely. *)
val run_until_idle : t -> unit

val queue_length : t -> int
val unfinished : t -> int
val finished_count : t -> int

(** Serviced quanta of tasks currently on the worker (MSQ). *)
val current_quanta : t -> int

val total_yields : t -> int
val clock : t -> Clock.t
