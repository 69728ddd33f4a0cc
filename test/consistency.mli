(** TPC-C consistency conditions.

    Adapted from the specification's consistency requirements; run after
    any transaction mix to verify the substrate kept its invariants.
    Returns human-readable violations (empty list = consistent).  It
    lives with the tests: no production path runs it. *)

module Schema := Tq_tpcc.Schema

val check : Schema.t -> string list

(** [check_exn db] raises [Failure] with the violations joined. *)
val check_exn : Schema.t -> unit
