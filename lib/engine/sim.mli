(** Discrete-event simulation core.

    Virtual time is integer nanoseconds.  Events are ordered by
    (timestamp, insertion sequence), so equal-time events execute in the
    order they were scheduled — this makes every experiment bit-for-bit
    reproducible for a fixed PRNG seed.

    Events are data: the event queue holds ints.  The hot paths register
    their actions once, with {!action}, and schedule them with {!post},
    which allocates nothing; per-target state (the slice in flight, the
    item in service) lives in the component, not in a closure.  One-shot
    closures ({!schedule_at}, {!schedule_after}, {!periodic}) remain for
    rare events and for events that may be cancelled.

    An event may schedule further events and may cancel pending
    one-shots.  Cancellation is lazy: a cancelled event stays in the
    queue but is skipped when popped. *)

type t

(** Handle for cancelling a scheduled event. *)
type event

val create : unit -> t

(** [now t] is the current virtual time in nanoseconds. *)
val now : t -> int

(** A registered action: a [unit -> unit] the simulation can run any
    number of times without allocating. *)
type action

(** [action t f] registers [f] with [t]; register once, at set-up. *)
val action : t -> (unit -> unit) -> action

(** [no_action] is registered with no simulation.  It fills an action
    field until the record it sits in has been built and can register
    the real one. *)
val no_action : action

(** [post t ~delay a] runs action [a] at [now t + delay].  A post cannot
    be cancelled.  Raises [Invalid_argument] on a negative [delay] or an
    action [t] did not register. *)
val post : t -> delay:int -> action -> unit

(** [schedule_at t ~time f] runs [f ()] at absolute [time]; scheduling in
    the past raises [Invalid_argument]. *)
val schedule_at : t -> time:int -> (unit -> unit) -> event

(** [schedule_after t ~delay f] runs [f ()] at [now t + delay]. *)
val schedule_after : t -> delay:int -> (unit -> unit) -> event

(** [cancel ev] prevents a pending event from firing; cancelling a fired
    or already-cancelled event is a no-op. *)
val cancel : event -> unit

(** [cancelled ev] reports whether [cancel] was called. *)
val cancelled : event -> bool

(** Handle for a repeating event installed with {!periodic}. *)
type periodic

(** [periodic t ?until ~interval f] runs [f ()] every [interval] ns of
    virtual time, first at [now t + interval].  With [until], no firing
    is scheduled past that absolute time — always bound or {!stop_periodic}
    a periodic, otherwise the event queue never drains and [run] without
    [until] spins forever.  Replaces the hand-rolled self-rescheduling
    closures that heartbeat/sampler code used to build on
    {!schedule_after}. *)
val periodic : t -> ?until:int -> interval:int -> (unit -> unit) -> periodic

(** [stop_periodic p] cancels the repeating event; it will never fire
    again.  Idempotent. *)
val stop_periodic : periodic -> unit

(** [periodic_fired p] counts completed firings (diagnostics/tests). *)
val periodic_fired : periodic -> int

(** [run ?until t] processes events in timestamp order until the queue is
    empty or the next event is strictly after [until].  Time stops at the
    last executed event (or at [until] if given and later). *)
val run : ?until:int -> t -> unit

(** [step t] executes the next non-cancelled event; false when drained. *)
val step : t -> bool

(** [pending t] counts queued events, including cancelled ones. *)
val pending : t -> int

(** [events_processed t] counts executed (non-cancelled) events. *)
val events_processed : t -> int
