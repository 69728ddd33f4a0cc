(** The yield-probe runtime API.

    In the paper, an LLVM pass inserts probe calls; in OCaml we have no
    such pass, so instrumented code calls {!probe} explicitly, typically
    once per loop iteration — the library-level equivalent of the
    compiler's loop instrumentation (see DESIGN.md substitutions).

    A probe reads the worker's clock and performs a fiber yield when the
    current quantum has been exceeded, exactly like the generated
    [call_the_yield] thunk.  Critical sections suppress yielding, as in
    Section 4 of the paper; the deferred yield fires when the outermost
    section exits. *)

type t

val create : clock:Clock.t -> quantum_ns:int -> t

(** Worker-side hooks. *)

(** [start_quantum t] marks the beginning of a fresh quantum (called by
    the scheduler just before resuming a task fiber). *)
val start_quantum : t -> unit

(** [install t] binds [t] as the calling domain's active context —
    the analogue of binding [call_the_yield] before a resume. *)
val install : t -> unit

val uninstall : unit -> unit

(** [current ()] — the calling domain's installed context, if any. *)
val current : unit -> t option

(** [set_cadence t d] — when [d] is [Some dist], every probe records the
    nanoseconds elapsed since the previous probe of the same quantum
    into [dist] (the probe-cadence distribution: how finely the running
    code is instrumented, hence the bound on preemption overshoot).
    [None] (the default) turns tracking off; the probe hot path then
    pays one extra branch and no clock read. *)
val set_cadence : t -> Tq_obs.Counters.dist option -> unit

(** Task-side API. *)

(** [probe ()] — yield iff the quantum expired and no critical section
    is open.  A no-op when no context is installed (uninstrumented
    execution), like a probe compiled into code running outside TQ. *)
val probe : unit -> unit

(** [critical_begin ()] / [critical_end ()] — nestable; on final exit a
    pending expired quantum yields immediately. *)
val critical_begin : unit -> unit

val critical_end : unit -> unit

(** Statistics. *)

val probes_executed : t -> int
val yields_taken : t -> int
val quantum_ns : t -> int
val set_quantum_ns : t -> int -> unit
