(** Pluggable admission control at the dispatcher's front door.

    Decides, per arriving request and before any dispatch cost is paid,
    whether to admit or shed.  Shedding early is the overload-protection
    mechanism: past saturation, rejecting the excess keeps the admitted
    requests fast, so goodput stays near peak instead of collapsing. *)

type policy =
  | Accept_all  (** no protection (the historical behavior) *)
  | Queue_limit of { max_in_system : int }
      (** reject when admitted-but-unfinished requests reach the cap *)
  | Ewma_sojourn of { threshold_ns : int; alpha : float }
      (** reject while the EWMA of completion sojourns (updated with
          weight [alpha] per completion) exceeds [threshold_ns] *)

type t

(** [validate p] raises [Invalid_argument] when [p]'s parameters are
    nonsensical — the check {!create} and {!set_policy} apply. *)
val validate : policy -> unit

(** Raises [Invalid_argument] on nonsensical parameters. *)
val create : policy -> t

(** [set_policy t p] swaps the live policy (the feedback controller's
    actuator).  The rejection count and the sojourn EWMA are preserved
    across the swap, so mid-run retuning never resets learned state.
    Raises [Invalid_argument] on nonsensical parameters. *)
val set_policy : t -> policy -> unit

(** The policy currently in force. *)
val policy : t -> policy

(** [admit t ~in_system] decides one request; [in_system] is the
    dispatcher's count of admitted-but-unfinished requests.  Counts the
    rejection internally when the answer is [false]. *)
val admit : t -> in_system:int -> bool

(** Feed a completion's sojourn into the EWMA (no-op for the other
    policies). *)
val note_completion : t -> sojourn_ns:int -> unit

(** Requests shed so far. *)
val rejected : t -> int

(** Current EWMA estimate (0 until the first completion). *)
val ewma_sojourn_ns : t -> float

val policy_name : policy -> string
