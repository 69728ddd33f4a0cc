(** Open-loop load generator for {!Server} (the [tq_load] engine).

    Arrivals are a Poisson process at [rate_rps], spread round-robin
    over [connections] pipelined connections — open loop, as in the
    paper's evaluation (and LibPreemptible's harness): a slow server
    does {e not} slow the generator down, it just grows the generator's
    outbound queues, so tail latencies reflect queueing honestly.

    The run has a warmup window (responses ignored for recording),
    then a measurement window (per-class wall-clock latencies into a
    {!Tq_obs.Latency} registry), then a grace period draining
    still-outstanding responses.  Latency is measured per request id
    from the {e intended} send time (the Poisson schedule's, not the
    poll round's that sent it) to the response, so a generator that
    falls behind shows up in the latencies rather than hiding from
    them; the lag itself is reported too.  A request belongs to the
    measurement window by its intended send time.  Requests are matched
    by the ids the server echoes. *)

(** Request mix, sampled per arrival. *)
type mix = {
  echo : float;  (** weight of spin-echo requests *)
  kv : float;  (** weight of KV requests *)
  tpcc : float;  (** weight of TPC-C transactions *)
  echo_heavy : float;
      (** weight of *heavy* spin-echo requests — same unkeyed echo
          class, [echo_heavy_spin_ns] of service.  A small weight with
          a large spin makes the offered load heavy-tailed, the shape
          that strands backlog behind one worker (the tail A/B and the
          heavy CI serve entry use it) *)
  echo_spin_ns : int;  (** server-side spin per echo request *)
  echo_heavy_spin_ns : int;  (** server-side spin per heavy echo request *)
  kv_set_fraction : float;  (** SETs among KV requests (rest are GETs) *)
  kv_keys : int;  (** keyspace size; must not exceed the server's *)
}

(** 70% echo (1 us spin), 25% KV (30% sets), 5% TPC-C, 1024 keys, no
    heavy echoes. *)
val default_mix : mix

type config = {
  host : string;
  port : int;
  connections : int;
  rate_rps : float;
  warmup_s : float;
  measure_s : float;
  grace_s : float;  (** post-window wait for outstanding responses *)
  seed : int64;
  mix : mix;
  slo : Tq_obs.Slo.objective list;
      (** latency/goodput objectives evaluated live over a sliding
          window; empty means monitor {!Tq_obs.Slo.default_objective} *)
  stats_interval_s : float option;
      (** [Some s]: poll the server's Stats RPC every [s] seconds over a
          dedicated connection, collecting the JSON snapshots in
          [stats_polls] *)
  dashboard : bool;
      (** render a live ANSI dashboard to stderr (SLO burn rates, the
          goodput window and achieved throughput as
          {!Tq_util.Ascii_chart} curves) *)
}

(** Loopback, 8 connections, 0.5 s warmup, 2 s measurement, 2 s grace,
    [default_mix], no stats polling or dashboard;
    [rate_rps] has no default — choose the offered load. *)
val default_config : rate_rps:float -> port:int -> config

type result = {
  sent : int;  (** requests sent over the whole run *)
  received : int;  (** responses of any status *)
  ok : int;
  shed : int;  (** admission rejections *)
  errors : int;  (** handler failures *)
  measured_sent : int;  (** sent inside the measurement window *)
  measured_ok : int;  (** their [Ok] responses *)
  throughput_rps : float;  (** [measured_ok] over the window *)
  latency : Tq_obs.Latency.t;
      (** per-class (["echo"], ["kv_get"], ...) plus ["all"]; [Ok]
          responses to measured sends only *)
  lag_p99_us : float;
      (** p99 of the generator's lag (actual minus intended send time)
          over the measured sends *)
  lag_max_us : float;  (** the largest such lag *)
  outstanding : int;  (** unanswered when the grace period ended *)
  slo_reports : Tq_obs.Slo.report list;
      (** final sliding-window verdict per objective (every response
          observed, warmup included) *)
  stats_polls : (float * string) list;
      (** Stats-RPC JSON snapshots, (seconds since start, body), when
          [stats_interval_s] was set *)
}

(** [config_error config] — the first rule [config] breaks, as a
    one-line message naming the field and the value ([None] when every
    rule holds): a positive, finite [rate_rps]; positive [connections]
    and [measure_s]; non-negative [warmup_s] and [grace_s]; finite,
    non-negative mix weights ([echo_heavy] is the heavy fraction) that
    are not all zero; non-negative spins; a positive
    [stats_interval_s] when one is given. *)
val config_error : config -> string option

(** [run config] executes one load-generation session (blocking; wall
    clock).  Raises [Invalid_argument] with {!config_error}'s message
    before connecting when [config] breaks a rule. *)
val run : config -> result

(** [to_json ?outliers config result] — the single-run benchmark report
    ([tq_load --json], the CI serve-smoke artifact): offered vs
    achieved rate, loss/shed accounting, the generator's lag, the host's
    core count and the per-class latency ladder.  [outliers], when given,
    is spliced in verbatim as the ["outliers"] field — pass the server's
    [Stats_outliers] body ([tq_load --outliers N]) to embed the
    slow-request dossiers in the report. *)
val to_json : ?outliers:string -> config -> result -> string
