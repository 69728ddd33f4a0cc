(** Bounded ring-buffer event tracer.

    The hot-path contract: call sites guard with {!enabled} so that a
    disabled tracer costs one load + branch and allocates nothing —

    {[
      if Trace.enabled tr then
        Trace.record tr ~ts_ns:(Sim.now sim) ~lane (Event.Yield { job_id })
    ]}

    The event constructor application sits inside the guard, so the
    disabled branch never allocates (the [dune runtest] gate [trace
    record null allocation-free] checks it).  When the buffer is full
    the oldest records are overwritten; {!dropped} counts the
    overwrites. *)

(** One recorded event with its position and timing. *)
type record = {
  seq : int;  (** 0-based global sequence number (survives overwrites) *)
  ts_ns : int;  (** virtual-time timestamp *)
  lane : Event.lane;
  event : Event.t;
}

type t

(** The shared disabled tracer: zero capacity, never records, cannot be
    enabled.  Use it as the default everywhere tracing is optional. *)
val null : t

(** [create ~capacity ()] — an enabled tracer whose ring keeps the last
    [capacity] (default 65536) records.  Raises [Invalid_argument] if
    [capacity < 1]. *)
val create : ?capacity:int -> unit -> t

(** [enabled t] — whether {!record} currently stores anything; the one
    branch every instrumented hot path pays. *)
val enabled : t -> bool

(** [set_enabled t on] toggles recording.  Raises [Invalid_argument]
    when trying to enable {!null}. *)
val set_enabled : t -> bool -> unit

(** [record t ~ts_ns ~lane event] appends one record (overwriting the
    oldest when full).  No-op when disabled — but call it behind an
    {!enabled} guard anyway so the event payload is never even
    allocated. *)
val record : t -> ts_ns:int -> lane:Event.lane -> Event.t -> unit

(** [total t] — records ever written, including overwritten ones. *)
val total : t -> int

(** [length t] — records currently held in the ring. *)
val length : t -> int

(** [dropped t] — records lost to ring overwrites
    ([total - capacity], floored at 0). *)
val dropped : t -> int

(** [clear t] empties the ring and resets the sequence counter. *)
val clear : t -> unit

(** [iter t f] visits the surviving records oldest-first. *)
val iter : t -> (record -> unit) -> unit

(** [to_list t] — the surviving records oldest-first. *)
val to_list : t -> record list
