(** Bounded lock-free single-producer single-consumer ring.

    The dispatcher-to-worker channel from the paper's implementation
    (Section 4): the dispatcher pushes requests, the worker's scheduler
    coroutine polls.  Exactly one producer thread and one consumer
    thread may use a given ring.

    The cells are one plain array, ordered by the two atomic cursors,
    so [create] allocates no block per cell (and never makes the
    runtime collect first) and [try_push] allocates nothing. *)

type 'a t

(** [create ~capacity] — capacity must be positive. *)
val create : capacity:int -> 'a t

(** [try_push t v] — false when full. *)
val try_push : 'a t -> 'a -> bool

(** [try_pop t] — [None] when empty. *)
val try_pop : 'a t -> 'a option

(** Approximate occupancy (exact when called by producer or consumer). *)
val length : 'a t -> int

val capacity : 'a t -> int
