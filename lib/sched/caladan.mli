(** The Caladan baseline: FCFS run-to-completion with work stealing.

    Requests are steered to worker cores by RSS hashing (uniform over
    cores for an open-loop client), each core runs its queue FCFS to
    completion, and idle cores steal queued jobs from loaded ones.  Two
    I/O modes, as evaluated in the paper:

    - [Iokernel]: a dedicated core forwards every packet (per-packet
      cost; becomes a throughput bottleneck), workers are lean.
    - [Directpath]: workers talk to the NIC directly — no central
      bottleneck, but each request carries extra packet-processing work
      on the worker.

    FCFS gives long jobs the best latency (never preempted) and short
    jobs severe head-of-line blocking under broad distributions. *)

type mode = Iokernel | Directpath

type config = {
  cores : int;
  mode : mode;
  iokernel_op_ns : int;  (** IOKernel per-packet forwarding cost *)
  directpath_extra_ns : int;  (** per-request worker-side NIC work *)
  steal_ns : int;  (** cost of one successful steal *)
  finish_ns : int;  (** per-job completion (TX) work *)
  rss_flows : int option;
      (** [Some f]: steer by hashing one of [f] client connections
          (packets of a flow stick to one core; few flows leave cores
          idle); [None]: idealized uniform spread (many connections) *)
}

val default_config : mode:mode -> cores:int -> config

type t

(** [on_complete] fires per finished job and [on_lost] per job destroyed
    by a core failure — hooks for the retry layer and fault harness. *)
val create :
  Tq_engine.Sim.t ->
  rng:Tq_util.Prng.t ->
  config:config ->
  metrics:Tq_workload.Metrics.t ->
  ?obs:Tq_obs.Obs.t ->
  ?on_complete:(Job.t -> unit) ->
  ?on_lost:(Job.t -> unit) ->
  unit ->
  t

val submit : t -> Tq_workload.Arrivals.request -> unit

(** Number of successful steals, for diagnostics. *)
val steals : t -> int

val workers : t -> Worker.t array

(** Every broken identity of the bookkeeping, one line each; [[]] when
    sound: the queued-job count the workers share must equal the sum of
    their {!Worker.queue_length}. *)
val invariant_violations : t -> string list

(** [(queued, in_flight, busy_cores)] at this instant (see
    {!Two_level.obs_snapshot}). *)
val obs_snapshot : t -> int * int * int

(** {2 Fault injection}

    There is no dispatcher health tracking here: a killed core's queued
    jobs are rescued only when another core goes idle and steals them —
    work stealing is the only recovery mechanism this architecture
    has. *)

val inject_stall : t -> wid:int -> duration_ns:int -> unit

val kill_worker : t -> wid:int -> unit

(** Jobs destroyed by kills, summed over cores. *)
val lost_jobs : t -> int

(** Blind the IOKernel forwarding core for [duration_ns] ([Iokernel]
    mode; a no-op burn on an unused server under [Directpath]). *)
val inject_iokernel_outage : t -> duration_ns:int -> unit
