(** Minimal JSON reader/writer for the repo's JSON reports.

    The reports are emitted by hand throughout the repo; the benchmark
    harness in [tqbench/] reads the server's stats snapshots back.
    Numbers parse as floats. *)

(** A parsed JSON value.  Object member order is preserved. *)
type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** [of_string s] parses one complete JSON value (trailing whitespace
    allowed, trailing garbage is an error). *)
val of_string : string -> (t, string) result

(** [of_file path] reads and parses [path]. *)
val of_file : string -> (t, string) result

(** [to_string v] renders [v] on one line (stable member order). *)
val to_string : t -> string

(** [member name v] — the named member of an object, [None] for missing
    members and non-objects. *)
val member : string -> t -> t option

(** [number_opt v] — the float behind a [Number]. *)
val number_opt : t -> float option
