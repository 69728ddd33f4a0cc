(** A single-server FIFO resource inside a simulation.

    Models one CPU (or device) that serves submitted items one at a time,
    each with its own service cost.  This is how dispatcher capacity is
    modeled: a dispatcher that takes 200 ns per scheduling operation is a
    [Busy_server] — when offered load exceeds 1/cost the queue grows and
    downstream latency explodes, which is exactly the Shinjuku bottleneck
    the paper measures (Figure 16). *)

type 'a t

(** [create sim ~serve ()] is an idle server that calls [serve item] as
    it finishes each item.  The server registers one {!Sim.action} and
    keeps the item in service itself, so serving allocates no event, and
    it queues costs and items in two FIFOs, so a submit allocates no
    cell. *)
val create : Sim.t -> serve:('a -> unit) -> unit -> 'a t

(** [submit t ~cost item] enqueues [item]; when the server has served it
    (after waiting for predecessors plus [cost] ns), [serve item] runs. *)
val submit : 'a t -> cost:int -> 'a -> unit

(** [occupy t ~cost] blocks the server for [cost] ns without serving
    anything: a fault-injection hook modeling a transient outage of the
    serving core.  The blackout starts as soon as the op currently in
    service (if any) completes — it jumps ahead of queued work — and is
    counted in [busy_time] but not in [served]. *)
val occupy : 'a t -> cost:int -> unit

(** [queue_length t] counts items waiting (not the one in service).  A
    queued blackout from {!occupy} is not an item and is not counted. *)
val queue_length : 'a t -> int

val busy : 'a t -> bool

(** [busy_time t] is the cumulative time spent serving, for utilization
    accounting. *)
val busy_time : 'a t -> int

val served : 'a t -> int
