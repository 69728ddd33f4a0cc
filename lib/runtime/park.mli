(** Block a thread until another publishes work for it: the wake-up
    behind every cross-domain hand-off in the live runtime.

    One thread owns a [t] and is the only one that {!park}s on it; any
    number of threads may {!wake} it.  The protocol has no lost
    wake-up.  The owner sets its [sleeping] flag, re-checks its work
    condition, and only then waits.  A waker first publishes its work
    (an [Atomic] write, such as a ring cursor), then reads the flag and
    signals only if it is set.  Both sides use sequentially consistent
    atomics, so either the owner's re-check sees the work or the waker
    sees the flag; and the owner holds the mutex from before it sets
    the flag until [Condition.wait] releases it, so a signal cannot
    slip in between.

    A parked domain leaves the runtime, as in [Unix.sleepf]: its backup
    thread still answers every stop-the-world minor collection for it
    (DESIGN.md, "Live serving"). *)

type t

val create : unit -> t

(** [park t ready] — block until woken, unless [ready ()] already holds
    once the sleeping flag is up.  It may return without a wake, so the
    caller loops on its own condition.  Only the owning thread parks. *)
val park : t -> (unit -> bool) -> unit

(** [wake t] — call after publishing work for the owner: signals it if
    it is parked or about to park.  One atomic load when it is not. *)
val wake : t -> unit

(** Whether the owner is parked or about to park. *)
val sleeping : t -> bool
