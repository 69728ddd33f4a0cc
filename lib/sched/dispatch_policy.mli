(** Load-balancing policies for the TQ dispatcher.

    The paper's default is Join-the-Shortest-Queue with
    Maximum-Serviced-Quanta tie-breaking; the alternatives are the
    Figure 12 ablations. *)

type t =
  | Jsq_msq
      (** JSQ; ties broken by the core whose current jobs have serviced
          the most quanta (expected smallest remaining work) *)
  | Jsq_random  (** JSQ; ties broken uniformly at random *)
  | Random  (** uniform random core (TQ-RAND) *)
  | Power_of_two  (** best of two random cores (TQ-POWER-TWO) *)
  | Round_robin  (** cyclic assignment *)

(** Mutable chooser state (round-robin cursor). *)
type chooser

val make_chooser : t -> rng:Tq_util.Prng.t -> chooser

(** [choose chooser workers] picks the worker index for the next job,
    reading each worker's dispatcher-visible counters.  [alive], when
    given, restricts the choice to indices it accepts — the dispatcher's
    health-tracking filter; raises [Invalid_argument] if it accepts
    none.  Fault-free callers omit it and get the historical PRNG
    stream unchanged. *)
val choose : ?alive:(int -> bool) -> chooser -> Worker.t array -> int
