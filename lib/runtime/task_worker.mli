(** A worker core's scheduler loop over task fibers.

    Mirrors the paper's scheduler coroutine: keeps a run queue of busy
    task fibers, resumes the head for one quantum (binding the probe
    context first, like binding [call_the_yield]), and moves yielded
    tasks to the tail — processor sharing.  Maintains the finished-jobs
    and serviced-quanta counters the dispatcher reads. *)

type task = {
  task_id : int;
  class_idx : int;  (** request class, for per-class quantum lookup *)
  work : wid:int -> unit;
      (** called with the id of the worker that executes it, so the
          job can resolve per-worker state (app instance, reply ring)
          when it runs *)
}

type t

(** [obs] supplies the counter registry (the default is a throwaway
    one); spans are the [on_quantum] hook's business.  [wid] is also
    what each task's [work ~wid] receives when it runs here.  Always-on
    profiling dists land in the registry: [runtime.quantum_len_ns]
    (wall length of every executed slice) and [runtime.overshoot_ns] (how far a forced yield ran past
    its quantum — the probe-granularity tax).  [track_probes]
    additionally registers [runtime.probe_gap_ns] and arms probe-cadence
    tracking on the worker's context ({!Probe_api.set_cadence}).
    [on_quantum] is called after every slice with the task id, wall
    start/end and whether the task completed — the hook the live server
    uses to emit per-request quantum spans and detect stalls.
    [class_quantum], when given, is consulted before every slice with
    the head task's [class_idx] and its result replaces the probe
    context's quantum for that slice — the live actuation point for
    feedback-controlled per-class quanta (the closure typically reads
    an [Atomic] the dispatcher writes). *)
val create :
  ?obs:Tq_obs.Obs.t ->
  ?wid:int ->
  ?track_probes:bool ->
  ?on_quantum:(task_id:int -> start_ns:int -> end_ns:int -> finished:bool -> unit) ->
  ?class_quantum:(class_idx:int -> int) ->
  clock:Clock.t ->
  quantum_ns:int ->
  on_finish:(task -> unit) ->
  unit ->
  t

(** [submit t task] enqueues a new task (wraps it in a fresh fiber). *)
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
