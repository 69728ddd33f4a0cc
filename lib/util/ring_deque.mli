(** Double-ended queue on a growable circular buffer.

    Worker run queues push yielded jobs at the tail and resume from the
    head (processor sharing); work stealing (the Caladan model) takes
    from the tail of a victim's queue.  All operations are amortized
    O(1), and once the buffer has grown to its working size, pushes and
    pops allocate nothing: elements sit in the buffer directly, with no
    option cell around them. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool
val push_back : 'a t -> 'a -> unit
val push_front : 'a t -> 'a -> unit

(** [pop_front t] / [pop_back t] remove and return the front / back
    element.  Raise [Invalid_argument] on an empty deque: check
    {!is_empty} first. *)
val pop_front : 'a t -> 'a

val pop_back : 'a t -> 'a

(** [get t i] is the i-th element from the front. *)
val get : 'a t -> int -> 'a

val iter : ('a -> unit) -> 'a t -> unit
val clear : 'a t -> unit
val to_list : 'a t -> 'a list
