(** The simulator's event queue: int keys, int payloads.

    Entries leave in [(key, push order)] order, so equal keys pop FIFO (a
    determinism requirement).  Keys and payloads sit in flat int arrays,
    so neither a push nor a pop allocates or writes through
    [caml_modify].

    There are two tiers.  A sorted {e near} ring of at most 32 entries
    holds the earliest ones.  A push goes after every ring entry whose
    key is no larger than its own; it compares its key with the ring's
    middle entry and moves the shorter side of the insertion point by
    one slot (towards the front when the key is below the middle one,
    the head stepping back, else towards the tail).  Equal keys in the
    ring therefore sit in push order and the ring stores no sequence
    numbers.  A binary heap on [(key, seq)] holds the rest, and is
    allocated on the first overflow.  Every near entry precedes every
    heap entry, so a pop takes the near head while there is one.  An
    entry pushed straight to the heap takes the next of a counter
    ascending from 0; an entry evicted from a full ring precedes
    everything in the heap, so it takes the next of a counter descending
    from -1.  A push costs O(32 + log n). *)

type t

val create : unit -> t
val length : t -> int
val is_empty : t -> bool

(** [push t ~key v] inserts payload [v] with priority [key]. *)
val push : t -> key:int -> int -> unit

(** [top_key t] is the smallest key.  Raises [Invalid_argument] when
    empty. *)
val top_key : t -> int

(** [pop t] removes and returns the first payload in [(key, push order)];
    read its key with {!top_key} first.  Raises [Invalid_argument] when
    empty. *)
val pop : t -> int

val clear : t -> unit
