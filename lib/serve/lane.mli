(** One dispatcher lane of the multi-lane I/O plane.

    A lane is a self-contained copy of the classic dispatcher loop:
    it polls the shared {!Listener} (accept spreading hands it an even
    share of connections), owns those connections outright, steers
    their parsed requests into its own slice of the worker pool
    (workers [w] with [w mod lanes = lane_id] — preserving the SPSC
    one-producer-per-ring contract with zero coordination), polls its
    slice's reply rings and flushes responses back through pooled
    zero-copy framing.

    Nothing on the per-request path crosses lanes, so all per-lane
    state (connections, pending table, ledger, latency, span sink) is
    single-writer plain mutable state.  Cross-lane reads
    of that state — the Stats RPC renderer, [Server.stats] — see
    word-sized plain loads: never torn, eventually consistent, exact
    once the lane's domain is joined.  {!Server} owns lane creation,
    lifecycle and the merged views; this interface exists for it and
    for whitebox tests. *)

(** What a worker pushes onto its reply ring: ids, stamps and the
    response frame in a pooled buffer.  Abstract outside the plane —
    {!Server} only needs the type to size the rings. *)
type reply

(** Everything the lanes share: the partitioned worker pool, the apps
    and reply rings (indexed by global worker), the buffer pool, the
    listener, the stop/pause controls and the fixed serving knobs. *)
type shared = {
  pool : Tq_runtime.Parallel.t;
  apps : App.t array;
  reply_rings : reply Tq_runtime.Spsc_ring.t array;
  bufs : Pool.t;
  listener : Listener.t;
  stop_flag : bool Atomic.t;
  paused_until_ns : int Atomic.t;  (** all lanes idle until this stamp *)
  spans : Tq_obs.Span.t;
  spans_on : bool;
  tail : Tq_obs.Tail.t;  (** tail-forensics reservoirs, one sink per lane *)
  tail_on : bool;
  lanes : int;
  rx_depth : int;
  drain_timeout_s : float;
  heartbeat_interval_ns : int;
  missed_heartbeats : int;
  ctl_latency_ns : int;  (** the controller objective's "good" cutoff *)
}

(** One lane. *)
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

(** [create sh ~id ~admission] — lane [id] of [sh.lanes], with a fresh
    admission controller with policy [admission].  Raises
    [Invalid_argument] when the lane's worker slice would be empty
    ([lanes] exceeds the pool's workers). *)
val create : shared -> id:int -> admission:Tq_sched.Admission.policy -> t

(** The lane's ledger.  Cross-lane reads are word-sized plain loads:
    never torn, eventually consistent live, exact after the lane's
    domain joins. *)
val ledger : t -> ledger

(** The lane's latency registry; pool lanes with [Latency.merge]. *)
val latency : t -> Tq_obs.Latency.t

(** The lane's admission controller — the feedback controller retunes
    every lane through [Admission.set_policy] (the policy cell is
    atomic). *)
val admission : t -> Tq_sched.Admission.t

(** Connections currently owned by the lane. *)
val open_conns : t -> int

(** Span records this lane's sink lost to ring overwrites — the
    [obs.span_dropped] per-lane gauge; 0 means every span of every
    request is still in the buffer. *)
val span_dropped : t -> int

(** [set_stats_renderer t f] wires the server-level closure that
    renders a Stats RPC view across all lanes; the lane answers stats
    requests synchronously through it.  Must be set before {!run}. *)
val set_stats_renderer :
  t -> (Protocol.stats_view -> (string, string) result) -> unit

(** [set_tick t f] — a hook called once per loop pass with the current
    wall clock; the server installs the controller tick and live-fault
    schedule on lane 0.  Must be set before {!run}. *)
val set_tick : t -> (now_ns:int -> unit) -> unit

(** [run t] — the lane loop: accept/read/dispatch/reply/flush until the
    shared stop flag is observed and the lane's own work has drained
    (bounded by [drain_timeout_s]).  Blocks; call from the lane's
    domain.  Closes the lane's connections on exit; the caller retains
    pool shutdown and listener close. *)
val run : t -> unit
