(** Growable float arrays.

    Latency recorders accumulate millions of samples; a resizable flat
    float array avoids boxing and list overhead. *)

type t

(** [create ?capacity ()] allocates nothing: the first {!push} allocates
    [capacity] slots (default 16), and each later growth doubles.  An
    unused vector costs one small record. *)
val create : ?capacity:int -> unit -> t
val length : t -> int
val push : t -> float -> unit
val get : t -> int -> float
val set : t -> int -> float -> unit
val clear : t -> unit

(** [to_array t] copies the live prefix into a fresh array. *)
val to_array : t -> float array

(** [sorted_copy t] returns the samples sorted ascending. *)
val sorted_copy : t -> float array

val iter : (float -> unit) -> t -> unit
val fold : ('a -> float -> 'a) -> 'a -> t -> 'a
val mean : t -> float
