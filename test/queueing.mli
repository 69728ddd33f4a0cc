(** Closed-form queueing results.

    Ground truth for validating the simulator: the test suite runs the
    DES models against these formulas (M/M/1, M/M/k via Erlang C, M/G/1
    via Pollaczek-Khinchine, M/M/1-PS) and requires agreement.  The
    paper leans on the same theory: processor sharing is tail-optimal
    for heavy-tailed service (Section 3.2), and JSQ-PS approximates the
    central M/G/K/PS queue.

    Conventions: [lambda] = arrival rate, [mu] = service rate of one
    server (both per unit time); utilization rho = lambda / (k mu) must
    be < 1 for stationary results.  It lives with the tests: no
    production path runs it. *)

(** [utilization ~lambda ~mu ~servers]. *)
val utilization : lambda:float -> mu:float -> servers:int -> float

(** {2 M/M/1 (FCFS)} *)

(** Mean number in system: rho / (1 - rho). *)
val mm1_mean_jobs : lambda:float -> mu:float -> float

(** Mean sojourn (wait + service): 1 / (mu - lambda). *)
val mm1_mean_sojourn : lambda:float -> mu:float -> float

(** Sojourn-time p-quantile (sojourn is exponential in M/M/1 FCFS). *)
val mm1_sojourn_quantile : lambda:float -> mu:float -> p:float -> float

(** {2 M/M/k (FCFS)} *)

(** Erlang C: probability an arrival must queue. *)
val erlang_c : lambda:float -> mu:float -> servers:int -> float

(** Mean queueing delay (excluding service). *)
val mmk_mean_wait : lambda:float -> mu:float -> servers:int -> float

(** Mean sojourn = wait + 1/mu. *)
val mmk_mean_sojourn : lambda:float -> mu:float -> servers:int -> float

(** {2 M/G/1 (FCFS)} *)

(** Pollaczek-Khinchine mean wait from the first two service moments:
    lambda E[S^2] / (2 (1 - rho)). *)
val mg1_mean_wait : lambda:float -> mean_service:float -> second_moment:float -> float

val mg1_mean_sojourn : lambda:float -> mean_service:float -> second_moment:float -> float

(** {2 M/M/1-PS (processor sharing)} *)

(** Mean sojourn of a job with service requirement [x]: x / (1 - rho) —
    the "slowdown is uniform" property that makes PS tail-friendly. *)
val mm1_ps_mean_sojourn_for : lambda:float -> mu:float -> x:float -> float

(** Expected slowdown under PS: 1 / (1 - rho), independent of x. *)
val ps_expected_slowdown : rho:float -> float
