(** A TQ worker core.

    Runs quanta of its admitted jobs without any external signal (forced
    multitasking): each job executes for at most a quantum — plus a
    jitter term modeling probe-timing inaccuracy — then pays the yield
    cost and goes to the back of the local run queue (processor
    sharing).  FCFS mode runs jobs to completion instead (the TQ-FCFS
    ablation).

    The worker maintains the two counters the paper's dispatcher reads
    for load balancing: finished jobs (for JSQ's queue-length deltas) and
    serviced quanta of *current* jobs (for MSQ tie-breaking). *)

type quantum_policy =
  | Ps of { quantum_ns : int; per_class_quantum : int array option }
      (** processor sharing with the given quantum; [per_class_quantum]
          is the TQ-TIMING ablation: mis-sized quanta per job class *)
  | Fcfs  (** run to completion *)
  | Las of { base_quantum_ns : int; max_quantum_ns : int }
      (** least-attained-service: always run the job that has received
          the least service; its quantum grows with attained service
          (clamped to [base, max]) — the dynamic-quantum policy the
          paper cites forced multitasking as enabling (Section 3.1) *)

type t

(** [queued] is a count of queued jobs shared by the workers of one
    system: every job this worker pushes onto its run queue adds one and
    every job it pops (to run, steal or drain) takes one away, so it is
    the sum of {!queue_length} over the workers sharing it.  The default
    is a fresh count of this worker's own.  [on_idle] fires when the
    core transitions from busy to idle with an empty queue — the
    work-stealing hook used by the Caladan model.
    [on_lost] fires for each job destroyed by a core failure (the
    in-flight slice of a killed core).  [obs] supplies the span
    collection, on which the worker registers the sink of its lane
    [Worker wid], and the counter registry; the default is
    {!Tq_obs.Span.null} (zero-cost) with a private, unread registry.
    The worker records a [Quantum] span per slice ([arg] 1 when the job
    finished), an instant [Reply_flush] per completion ([arg] the job's
    class), and [Stall] and [Kill] spans. *)
val create :
  Tq_engine.Sim.t ->
  wid:int ->
  rng:Tq_util.Prng.t ->
  policy:quantum_policy ->
  overheads:Overheads.t ->
  ?obs:Tq_obs.Obs.t ->
  ?queued:int ref ->
  ?on_idle:(unit -> unit) ->
  ?on_lost:(Job.t -> unit) ->
  on_finish:(Job.t -> unit) ->
  unit ->
  t

val is_busy : t -> bool

val wid : t -> int

(** [sink t] — the span sink of this core's lane, for the spans the
    owning system records there (ring hops, steals, health verdicts). *)
val sink : t -> Tq_obs.Span.sink

(** [set_quantum t ?class_idx ~quantum_ns ()] retunes the PS quantum
    live (the feedback controller's actuator): with [class_idx] only
    that job class, without it the base quantum for every class with no
    override.  Takes effect from the next slice.  No-op under FCFS and
    LAS.  Raises [Invalid_argument] on a non-positive quantum. *)
val set_quantum : t -> ?class_idx:int -> quantum_ns:int -> unit -> unit

(** The quantum the next slice of a [class_idx] job would get ([None]
    under FCFS); LAS reports its base quantum. *)
val quantum_for_class : t -> class_idx:int -> int option

(** [enqueue t job] admits a job to this core (called by the dispatcher
    after the ring hop). *)
val enqueue : t -> Job.t -> unit

(** Dispatcher-visible load: jobs admitted but not yet finished. *)
val unfinished : t -> int

(** Sum of serviced quanta over the jobs currently on the core (MSQ). *)
val current_quanta : t -> int

(** The scans below read one [alive] mask with an entry per worker and
    pass over the workers whose entry is [false].

    [jsq_msq ~alive workers] is the JSQ-MSQ pick: the index of the
    worker with the fewest {!unfinished} jobs; among those, the one with
    the most {!current_quanta} (likely the least remaining work); among
    those, the lowest index.  -1 when no worker is alive. *)
val jsq_msq : alive:bool array -> t array -> int

(** [longest_queue ~alive workers] is the index of the first worker
    with the longest run queue, or -1 when every such queue is empty. *)
val longest_queue : alive:bool array -> t array -> int

(** [first_idle ~alive workers] is the index of the first worker that
    is neither busy nor dead, or -1 if there is none. *)
val first_idle : alive:bool array -> t array -> int

val finished_jobs : t -> int
val busy_ns : t -> int

(** Jobs waiting in the local run queue (excludes the one executing). *)
val queue_length : t -> int

(** [queued_violations workers] is [[]] when the count [workers] share
    equals the sum of their {!queue_length}, else one line naming both.
    A worker with a count of its own is checked as [[| w |]]. *)
val queued_violations : t array -> string list

(** [note_assigned t] bumps the dispatcher-side assignment counter; the
    dispatcher calls this at decision time so in-flight jobs (on the
    ring) count as load. *)
val note_assigned : t -> unit

(** Undo one [note_assigned]: the dispatcher redirects a job that was
    bound for this core but never reached its queue (ring-arrival race
    with a mark-dead). *)
val note_unassigned : t -> unit

(** [steal t] removes the most recently queued job, or returns
    {!Job.none} if the queue is empty (used by the work-stealing models,
    which share this worker type). *)
val steal : t -> Job.t

(** {2 Fault injection}

    Hooks used by [tq_fault].  A {e stall} is a transient core blackout
    (GC pause, SMI, antagonist thread): pending stall time is served
    between quanta, delaying — never corrupting — queued work.  A
    {e kill} is permanent: the in-flight slice's job is lost (reported
    via [on_lost]); queued jobs stay in place for {!drain} (dispatcher
    rescue) or {!steal}. *)

(** Add [duration_ns] of blackout to this core.  Ignored on a dead
    core; raises [Invalid_argument] if the duration is not positive. *)
val inject_stall : t -> duration_ns:int -> unit

(** Permanently fail the core.  Idempotent. *)
val kill : t -> unit

(** Remove and return all queued-but-unstarted jobs (oldest first),
    releasing their assignment count.  The dispatcher uses this to
    re-dispatch work away from a core it believes dead. *)
val drain : t -> Job.t list

(** [not killed] — the ground truth the dispatcher's health tracking
    tries to estimate. *)
val alive : t -> bool

(** A job slice (not a stall) is executing right now.  Health tracking
    uses this to avoid declaring a core dead mid-way through one long
    legitimate slice. *)
val in_service : t -> bool

(** Whether the core would answer a dispatcher heartbeat right now:
    [false] while dead or serving a blackout.  Forced multitasking means
    a healthy core replies between quanta even under a long job, so a
    long slice never looks unresponsive. *)
val responsive : t -> bool

(** Monotone count of slices completed over the core's lifetime; a
    loaded core whose [progress] does not advance is stalled or dead. *)
val progress : t -> int

(** The core has admitted-but-unfinished jobs. *)
val loaded : t -> bool

(** Total blackout time served so far. *)
val stalled_ns : t -> int

(** Jobs destroyed by a kill on this core. *)
val lost_jobs : t -> int
