(** Sampling feedback controller for blind-scheduling knobs.

    Tiny Quanta exposes exactly two runtime knobs — the preemption
    quantum (per request class) and the admission shed threshold — and
    both trade throughput against tail latency: shrinking the quantum
    buys interleaving (short requests stop waiting behind long ones) at
    the price of preemption overhead, and lowering the admission limit
    sheds load early so what is admitted still meets its deadline.  The
    right settings depend on the offered load and on faults (a stalled
    core removes capacity), neither of which the operator knows in
    advance.  This controller closes the loop: a driver samples the
    running system every [interval_ns], hands the cumulative counts to
    {!tick}, and applies the returned {!action}s through the system's
    live actuators ({!Tq_sched.System_intf.S.set_quantum} /
    [set_admission], or the serve-path equivalents).

    {b Control law.}  The sensor is the per-class {e late burn rate}:
    among requests completed since the last tick, the fraction that
    missed the objective's latency target, divided by the error budget
    [1 - goodput] (the SRE burn convention of {!Tq_obs.Slo} — burn 1.0
    exactly spends the budget).  Sustained burn above [burn_hi] for
    [hold_ticks] consecutive ticks triggers a multiplicative decrease
    of that class's quantum (more interleaving) and snaps the global
    admission limit to a Little's-law target: smoothed completion rate
    x latency target x [headroom], the deepest backlog the measured
    capacity can drain inside the objective — one decision lands near
    the right cap whether the cause is overload or stalled cores (the
    completion rate already reflects lost capacity).  Sustained burn
    below [burn_lo] triggers a multiplicative quantum increase (less
    preemption overhead) and an additive admission-limit increase
    (probe for reclaimed capacity); the asymmetry — snap down, creep
    up — keeps recovery from overshooting into a fresh breach.

    {b Stability.}  Three mechanisms keep the loop from oscillating:
    the [burn_lo < burn_hi] dead band (no action while burn is between
    the watermarks), the [hold_ticks] persistence requirement (a single
    bad window never actuates; counters reset whenever burn re-enters
    the dead band), and the [min_window] evidence floor (ticks with too
    few completions are skipped entirely, so an idle system never drifts).
    Actuation is clamped to [quantum_min_ns, quantum_max_ns] and
    [shed_min, shed_max], and an action is only emitted when the clamped
    value actually changed.

    The controller is pure policy: it never touches the system, only
    maps samples to actions, which keeps it identical across the DES
    simulator and the live serving path and makes the law unit-testable
    without a scheduler.  Single-threaded, like the rest of the
    observability layer: one controller per driving thread. *)

(** Cumulative per-class completion counts, as seen at one instant.
    All three fields are monotone totals since system start; the
    controller differences consecutive samples itself. *)
type class_sample = {
  completed : int;  (** requests finished, good or late *)
  good : int;  (** completed within the objective's latency target *)
  shed : int;  (** rejected by admission before any service *)
}

(** One observation of the running system, passed to {!tick}. *)
type sample = {
  now_ns : int;  (** sample timestamp (virtual or wall clock) *)
  queued : int;  (** requests waiting, dispatcher + worker queues *)
  in_flight : int;  (** admitted but unfinished *)
  busy_cores : int;  (** workers mid-quantum *)
  classes : class_sample array;  (** per request class, index = class *)
}

(** A knob movement for the driver to apply.  [Set_quantum] with
    [class_idx = None] retunes the base quantum (all classes);
    [Set_shed_limit] replaces the admission policy's in-system cap. *)
type action =
  | Set_quantum of { class_idx : int option; quantum_ns : int }
  | Set_shed_limit of { max_in_system : int }

type config = {
  interval_ns : int;  (** sampling period the driver should use *)
  objective : Tq_obs.Slo.objective;
      (** latency target defining "good", goodput defining the budget *)
  quantum_min_ns : int;  (** actuation floor (probe overhead wall) *)
  quantum_max_ns : int;  (** actuation ceiling *)
  quantum_initial_ns : int;  (** operating point at attach *)
  shed_min : int;  (** admission-limit floor (never shed to zero) *)
  shed_max : int;  (** admission-limit ceiling *)
  shed_initial : int;  (** admission limit at attach *)
  burn_hi : float;  (** breach watermark: act above this, persistently *)
  burn_lo : float;  (** healthy watermark: relax below this, persistently *)
  hold_ticks : int;  (** consecutive ticks beyond a watermark before acting *)
  min_window : int;  (** minimum completions per tick to judge a class *)
  decrease : float;  (** multiplicative step down, in (0, 1) *)
  increase : float;  (** multiplicative quantum step up, > 1 *)
  headroom : float;
      (** fraction of the latency target the Little's-law shed target
          aims at, in (0, 1]: lower = shed earlier, more slack *)
}

(** [default_config ~quantum_initial_ns ~shed_initial] — 100 us ticks,
    the {!Tq_obs.Slo.default_objective}, quantum clamped to [500 ns,
    20 us], shed limit clamped to [8, 16384], watermarks 1.0 / 0.5,
    2-tick hold, 8-completion evidence floor, x0.5 down / x1.3 up,
    0.8 headroom. *)
val default_config : quantum_initial_ns:int -> shed_initial:int -> config

type t

(** [validate config] raises [Invalid_argument] when {!create} would
    reject [config]. *)
val validate : config -> unit

(** [create ?obs config] — a controller at its initial operating point.
    Decisions are published to [obs] as [control.*] counters and gauges.
    Raises [Invalid_argument] on non-positive interval, inverted clamp
    ranges or watermarks, an initial value outside its clamp range,
    factors outside their domains, or [hold_ticks]/[min_window] < 1. *)
val create : ?obs:Tq_obs.Obs.t -> config -> t

val config : t -> config

(** [initial_actions t] — the actions that move a freshly created
    system to the controller's initial operating point ([Set_quantum]
    base + [Set_shed_limit]); apply once at attach time. *)
val initial_actions : t -> action list

(** [tick t sample] — ingest one observation and return the knob
    movements it warrants (usually none).  Call at [interval_ns]
    cadence; the sample's class array may grow between ticks as new
    classes appear. *)
val tick : t -> sample -> action list

(** Current quantum for [class_idx] (the initial quantum for classes
    never yet observed). *)
val quantum_ns : t -> class_idx:int -> int

(** Current admission in-system cap. *)
val shed_limit : t -> int

(** Ticks ingested. *)
val ticks : t -> int

(** Actions emitted over the controller's lifetime. *)
val decisions : t -> int

(** One-line JSON of the controller's live state — ticks, decisions,
    shed limit, global burn, and per-class quantum/burn — served by the
    [tq_serve] stats RPC's [control] view. *)
val state_json : t -> string
