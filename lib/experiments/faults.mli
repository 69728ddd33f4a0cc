(** Graceful-degradation experiments built on [tq_fault]: goodput and
    tail-latency curves under injected core stalls, a permanent core
    failure, and overload, for TQ (with its failure handling) against
    the centralized and Caladan baselines. *)

(** Goodput/tail degradation vs stall intensity for one system. *)
val degradation :
  ?quick:bool ->
  system:Tq_sched.Experiment.system_spec ->
  system_name:string ->
  workload:Tq_workload.Service_dist.t ->
  unit ->
  Tq_util.Text_table.t

(** The same stall plan replayed against TQ, Shinjuku and Caladan. *)
val compare_systems :
  ?quick:bool -> workload:Tq_workload.Service_dist.t -> unit -> Tq_util.Text_table.t

(** One of 16 cores fails mid-run; health tracking on vs off. *)
val kill_recovery :
  ?quick:bool -> workload:Tq_workload.Service_dist.t -> unit -> Tq_util.Text_table.t

(** Load swept past saturation with and without admission control. *)
val admission_overload :
  ?quick:bool -> workload:Tq_workload.Service_dist.t -> unit -> Tq_util.Text_table.t

(** All four tables for one system/workload — the [tq_sim faults]
    subcommand. *)
val sweep :
  ?quick:bool ->
  system:Tq_sched.Experiment.system_spec ->
  system_name:string ->
  workload:Tq_workload.Service_dist.t ->
  unit ->
  Tq_util.Text_table.t list

(** Registry entry points: the four tables of the full sweep on TQ with
    High Bimodal, individually runnable so they can be parallel grid
    points. *)

(** {!degradation} on the registry's TQ + High Bimodal setup. *)
val faults_degradation : unit -> Tq_util.Text_table.t

(** {!compare_systems} on High Bimodal. *)
val faults_compare : unit -> Tq_util.Text_table.t

(** {!kill_recovery} on High Bimodal. *)
val faults_kill : unit -> Tq_util.Text_table.t

(** {!admission_overload} on High Bimodal. *)
val faults_admission : unit -> Tq_util.Text_table.t

(** All four tables, sequentially: the registry's "faults" entry. *)
val faults : unit -> Tq_util.Text_table.t list
