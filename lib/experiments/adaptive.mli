(** Closed-loop control vs static knobs: the {!Tq_control.Controller}
    feedback loop (adaptive per-class quanta + admission limit) against
    every static quantum setting, under heavy core stalls and sustained
    overload.  Goodput-under-deadline is the scoreboard; the margin
    (adaptive minus best static) is the number the test suite gates
    on. *)

(** One test condition. *)
type scenario = {
  scenario : string;  (** "stall" or "overload" *)
  load : float;  (** offered load as a fraction of capacity *)
  stall_intensity : float;
}

(** The two gated conditions: 80%% load with 30%% stalls, and 130%%
    overload. *)
val scenarios : scenario list

(** One knob setting's run. *)
type row = {
  label : string;
  gated : bool;  (** participates in the adaptive-vs-static comparison *)
  adaptive : bool;
  result : Tq_fault.Fault_experiment.result;
}

(** One scenario's sweep plus its gate numbers. *)
type outcome = {
  spec : scenario;
  rows : row list;
  adaptive_ratio : float;
  best_static_ratio : float;
  margin : float;  (** adaptive - best static; >= 0 is the gate *)
}

(** [run_scenario ~workload spec] — the static sweep, the hand-tuned
    context row, and the adaptive run for one scenario.  [quick]
    shortens runs and drops half the static sweep (CI smoke). *)
val run_scenario :
  ?quick:bool -> workload:Tq_workload.Service_dist.t -> scenario -> outcome

(** All scenarios in order. *)
val run_all :
  ?quick:bool -> workload:Tq_workload.Service_dist.t -> unit -> outcome list

(** Render one outcome as a table. *)
val table : outcome -> Tq_util.Text_table.t

(** Registry entry points (High Bimodal). *)
val adaptive_stall : unit -> Tq_util.Text_table.t

val adaptive_overload : unit -> Tq_util.Text_table.t
