(** The dispatcher lane: TQ's first level over real sockets.

    One loop accepts on the listening socket, owns every connection,
    steers each parsed request to a worker (KV by key hash, everything
    else JSQ over every living worker), polls every worker's reply ring
    and flushes responses back through pooled zero-copy framing.  The
    lane is the one producer of every inject ring and the one consumer
    of every reply ring.

    All lane state (connections, pending table, ledger, latency, span
    sink) is single-writer plain mutable state.  Reads from other
    threads — the HTTP metrics plane, [Server.stats] — see word-sized
    plain loads: never torn, eventually consistent, exact once {!run}
    has returned.  {!Server} owns the lane's creation, lifecycle and
    views; this interface exists for it and for whitebox tests. *)

(** What a worker pushes onto its reply ring: ids, stamps and the
    response frame in a pooled buffer.  Abstract outside the plane —
    {!Server} only needs the type to size the rings. *)
type reply

(** What the lane shares with the server: the worker pool, the apps
    and reply rings (indexed by worker), the buffer pool, the listening
    socket, the stop/pause controls and the fixed serving knobs. *)
type shared = {
  pool : Tq_runtime.Parallel.t;
  apps : App.t array;
  reply_rings : reply Tq_runtime.Spsc_ring.t array;
  bufs : Pool.t;
  listen_fd : Unix.file_descr;  (** from {!listen}; the lane closes it *)
  stop_flag : bool Atomic.t;
  paused_until_ns : int Atomic.t;  (** the lane idles until this stamp *)
  spans : Tq_obs.Span.t;
  spans_on : bool;
  tail : Tq_obs.Tail.t;  (** tail-forensics reservoirs; the lane registers sink 0 *)
  tail_on : bool;
  rx_depth : int;
  drain_timeout_s : float;
  heartbeat_interval_ns : int;
  missed_heartbeats : int;
  ctl_latency_ns : int;  (** the controller objective's "good" cutoff *)
}

(** The lane. *)
type t

(** The lane's accounting, the only per-request record it keeps: each
    dispatcher event updates exactly one cell, and only the lane writes
    them.  The per-class arrays are indexed by {!Protocol.class_of_request}.
    A completion counts in [good] when its sojourn is within the
    controller's latency objective ([shared.ctl_latency_ns]) and in
    [late] otherwise, so completed is [good + late].  Nothing derived
    is stored: readers compute [parsed = dispatched + shed] and
    [in_flight = dispatched - completed - lost - dropped] from the
    loads they report, so both identities hold {e exactly} in every
    read, even one racing the lane.  Field meanings otherwise match
    [Server.stats]. *)
type ledger = private {
  dispatched : int array;
  good : int array;
  late : int array;
  shed : int array;
  mutable connections : int;
  mutable lost : int;
  mutable dropped : int;
  mutable stats_served : int;
  mutable protocol_errors : int;
  mutable orphaned : int;
  mutable duplicates : int;
  mutable redispatched : int;
  mutable dead_workers : int;
}

(** [listen ~host ~port] binds, listens (backlog 128) and sets the
    socket nonblocking; returns it with the bound port ([port] 0 asks
    the kernel for an ephemeral one).  [Unix.Unix_error] propagates
    from bind. *)
val listen : host:string -> port:int -> Unix.file_descr * int

(** [create sh ~admission] — the lane over [sh], with a fresh admission
    controller with policy [admission]. *)
val create : shared -> admission:Tq_sched.Admission.policy -> t

(** The lane's ledger.  Reads from other threads are word-sized plain
    loads: never torn, eventually consistent live, exact after {!run}
    returns. *)
val ledger : t -> ledger

(** The lane's latency registry. *)
val latency : t -> Tq_obs.Latency.t

(** The lane's admission controller — the feedback controller retunes
    it through [Admission.set_policy] (the policy cell is atomic). *)
val admission : t -> Tq_sched.Admission.t

(** Connections currently owned by the lane. *)
val open_conns : t -> int

(** Span records the lane's sink lost to ring overwrites — the
    dispatcher's [obs.span_dropped] gauge; 0 means every dispatcher
    span of every request is still in the buffer. *)
val span_dropped : t -> int

(** [set_stats_renderer t f] wires the server-level closure that
    renders a Stats RPC view; the lane answers stats requests
    synchronously through it.  Must be set before {!run}. *)
val set_stats_renderer :
  t -> (Protocol.stats_view -> (string, string) result) -> unit

(** [set_tick t f] — a hook called once per loop pass with the current
    wall clock; the server installs the controller tick and live-fault
    schedule.  Must be set before {!run}. *)
val set_tick : t -> (now_ns:int -> unit) -> unit

(** [run t] — the lane loop: accept/read/dispatch/reply/flush until the
    shared stop flag is observed and the work has drained (bounded by
    [drain_timeout_s]).  Blocks.  Closes the listening socket and every
    connection on exit; the caller retains pool shutdown. *)
val run : t -> unit
