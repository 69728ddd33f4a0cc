(** Array-backed binary min-heap, parameterized by an integer priority.

    The simulator's event queue is the hottest structure in every
    experiment.  Keys and insertion sequences sit in flat int arrays and
    each payload in a fixed slot, so a sift moves only ints; a payload
    is stored once by [push] and read once by [pop].  Ties are broken by
    insertion sequence so that same-timestamp events run in FIFO order
    (a determinism requirement). *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

(** [push t ~key v] inserts [v] with priority [key]. *)
val push : 'a t -> key:int -> 'a -> unit

(** [top_key t] is the smallest key.  Raises [Invalid_argument] when
    empty. *)
val top_key : 'a t -> int

(** [pop t] removes and returns the minimum-key element (FIFO among
    equal keys); read its key with {!top_key} first.  Raises
    [Invalid_argument] when empty. *)
val pop : 'a t -> 'a

val clear : 'a t -> unit
