(** Time and cycle units.

    All simulator timestamps are integer nanoseconds, which keeps event
    ordering exact and covers about 292 years in a 63-bit int.  Cycle
    counts convert through an explicit clock frequency (the paper's
    testbed runs at 2.1 GHz). *)

(** Nanoseconds per microsecond / millisecond / second. *)
val ns_per_us : int

val ns_per_ms : int
val ns_per_s : int

(** [us f] converts microseconds (float) to integer nanoseconds. *)
val us : float -> int

(** [ms f] converts milliseconds to nanoseconds. *)
val ms : float -> int

(** [s f] converts seconds to nanoseconds. *)
val s : float -> int

(** [to_us ns] converts nanoseconds to microseconds as float. *)
val to_us : int -> float

(** [to_s ns] converts nanoseconds to seconds as float. *)
val to_s : int -> float

(** [now_ns ()] reads [CLOCK_MONOTONIC] in nanoseconds: the one live
    clock, the stand-in for the paper's cycle counter.  It never steps
    with the calendar and counts from an unspecified origin (boot on
    Linux), so only differences between readings mean anything.  The
    same clock stamps OCaml's [Runtime_events], so GC pause stamps
    compare with it directly.  Allocation-free. *)
val now_ns : unit -> int

(** Default simulated core frequency, GHz (paper: 2.1 GHz Xeon 8176). *)
val default_ghz : float

(** [cycles_to_ns ~ghz c] rounds cycle count [c] to nanoseconds. *)
val cycles_to_ns : ?ghz:float -> int -> int

(** [ns_to_cycles ~ghz ns] rounds nanoseconds to cycles. *)
val ns_to_cycles : ?ghz:float -> int -> int

(** [pp_ns fmt ns] prints a human-readable duration, e.g. "12.3us". *)
val pp_ns : Format.formatter -> int -> unit
