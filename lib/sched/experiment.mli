(** One-shot experiment driver.

    Builds a system, feeds it an open-loop Poisson request stream for a
    virtual duration, drains, and returns the metrics — the inner loop of
    every figure in the evaluation. *)

(** Re-export of {!System_intf.spec}: the per-system configuration.
    Drivers that need submission, accounting or fault hooks resolve a
    spec to a packed first-class module with
    {!System_intf.instantiate}. *)
type system_spec = System_intf.spec =
  | Two_level of Two_level.config
  | Stealing of Two_level.config
  | Centralized of Centralized.config
  | Caladan of Caladan.config

type result = {
  metrics : Tq_workload.Metrics.t;
  offered : int;  (** requests issued by the generator *)
  duration_ns : int;
  events : int;  (** simulator events processed *)
  dispatcher_busy_ns : int;  (** central-core busy time, 0 for Caladan directpath *)
  timeseries : Tq_obs.Timeseries.t option;
      (** queue depth / in-flight jobs / busy cores, sampled every
          [obs.sample_interval_ns] of virtual time; [None] unless [?obs]
          was passed to {!run} *)
}

(** [run ~seed ~system ~workload ~rate_rps ~duration_ns ()] runs one
    experiment; warm-up is the first 10% of [duration_ns].  Passing
    [?obs] threads its spans and counter registry through the system
    and installs the fixed-interval time-series sampler. *)
val run :
  ?seed:int64 ->
  ?obs:Tq_obs.Obs.t ->
  system:system_spec ->
  workload:Tq_workload.Service_dist.t ->
  rate_rps:float ->
  duration_ns:int ->
  unit ->
  result

(** [throughput_rps r] is completions per second of measured time. *)
val throughput_rps : result -> float

(** [run_seeds ~seeds ...] repeats the experiment with different seeds —
    tail percentiles of rare classes are noisy in a single run. *)
val run_seeds :
  seeds:int64 list ->
  system:system_spec ->
  workload:Tq_workload.Service_dist.t ->
  rate_rps:float ->
  duration_ns:int ->
  unit ->
  result list

(** [mean_sojourn_percentile results ~class_idx p] — average of the
    per-run percentiles. *)
val mean_sojourn_percentile : result list -> class_idx:int -> float -> float

(** [mean_slowdown_percentile results ~class_idx p]. *)
val mean_slowdown_percentile : result list -> class_idx:int -> float -> float

(** [max_rate_under_slo ~run_at ~rates ~ok] walks [rates] ascending and
    returns the largest rate whose result satisfies [ok] (0.0 if none).
    Linear — results at increasing load are not monotone enough near
    saturation to trust bisection. *)
val max_rate_under_slo :
  run_at:(float -> result) -> rates:float list -> ok:(result -> bool) -> float
