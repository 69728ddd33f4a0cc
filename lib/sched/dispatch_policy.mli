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

(** A policy with the PRNG its random draws take. *)
type chooser

val make_chooser : t -> rng:Tq_util.Prng.t -> chooser

(** [choose chooser ~alive workers] picks the worker index for the next
    job among those with [alive.(i)] (the dispatcher's health estimate,
    one entry per worker), reading each worker's dispatcher-visible
    counters.  Random draws range over the alive indices in index
    order, so with every entry [true] a seed draws what it draws over
    all the workers.  Raises [Invalid_argument] when no entry is
    [true]. *)
val choose : chooser -> alive:bool array -> Worker.t array -> int
