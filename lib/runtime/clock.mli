(** Clocks for the runtime's probes.

    [wall] reads real elapsed time from {!Tq_util.Time_unit.now_ns},
    the monotonic nanosecond clock every live stamp uses (the RDTSC
    stand-in).  [virtual_] is a manually advanced counter: instrumented
    code credits its own cost, which makes quantum behaviour
    deterministic and immune to GC pauses — the mode used by tests (see
    DESIGN.md fidelity caveats). *)

type t

val wall : unit -> t
val virtual_ : unit -> t
val now_ns : t -> int

(** [advance t ns] — virtual clocks only; raises [Invalid_argument] on a
    wall clock. *)
val advance : t -> int -> unit
