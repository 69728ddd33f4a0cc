(** Tail-based sampling: always-on forensics for the slow few.

    Full tracing ([--obs]) records every request and is unusable at
    calibrated load; aggregate views ({!Profile} histograms, {!Latency}
    ladders) cannot say {e which} stage hurt {e which} request.  This
    module keeps the middle ground production µs-scale systems use
    (RackSched's per-request tail accounting): one bounded reservoir,
    owned by the dispatcher loop, retaining only the K slowest requests
    per sliding window plus any request breaching a latency threshold.
    Each retained entry is a complete dossier — the request's seven
    stages, quanta, stalls and GC pause time, measured in the data path
    and offered with it — so the reservoir needs no spans.

    Hot-path contract: the disabled reservoir {!null} has [k = 0], so
    {!offer} is a single branch with zero allocation.  On the enabled
    path the common case (the request was fast) is one compare against
    the window's floor; admissions touch at most K slots — K a small
    configured constant — and are the only allocation.

    Single-writer (the loop); retained entries are immutable records in
    plain slots, each read in one load, so readers on the loop's domain
    (Stats RPC, the HTTP [/outliers] thread) never see a torn entry. *)

(** One retained slow request, a complete dossier: identity,
    residency, its stage decomposition and the controller and queue
    state sampled at dispatch time.  [e_cap = -1] means admission was
    unlimited; [e_breach] marks a threshold breach (as opposed to a
    merely-slowest-K admission). *)
type entry = {
  e_seq : int;  (** request sequence id, = [Span.record.req_id] *)
  e_class : int;  (** request class index *)
  e_worker : int;  (** worker that executed *)
  e_sojourn_ns : int;  (** parse start to reply pop *)
  e_end_ns : int;  (** reply pop stamp *)
  e_quantum_ns : int;  (** controller quantum for the class at dispatch *)
  e_cap : int;  (** admission cap at dispatch, -1 = unlimited *)
  e_inject_depth : int;  (** target worker's inject-ring depth at dispatch *)
  e_breach : bool;
  e_stages : int array;
      (** the seven {!Profile.stages} in order, summing to
          [e_sojourn_ns] exactly *)
  e_quanta : int;  (** quanta the request ran; preemptions = quanta - 1 *)
  e_stalls : int;  (** stalls its worker saw during its residency *)
  e_gc_pause_ns : int;  (** its worker's GC pause time during its residency *)
}

(** The reservoir. *)
type t

(** The disabled reservoir: nothing is ever retained.  What every
    [?tail] argument defaults to. *)
val null : t

(** [create ?k ?threshold_ns ?window_ns ()] — an enabled reservoir
    retaining the [k] (default 16) slowest requests per [window_ns]
    (default 1s) sliding window, plus every request with sojourn ≥
    [threshold_ns] (default 0 = no threshold rule). *)
val create : ?k:int -> ?threshold_ns:int -> ?window_ns:int -> unit -> t

(** [enabled t] — whether [t] retains anything; guard extra work
    (clock reads, depth sampling) on this. *)
val enabled : t -> bool

(** [k t] — the dossier budget per window. *)
val k : t -> int

(** [threshold_ns t] — the breach threshold, 0 when none. *)
val threshold_ns : t -> int

(** [window_ns t] — the sliding-window length. *)
val window_ns : t -> int

(** [offer t ~now_ns ~seq ~class_idx ~worker ~sojourn_ns ~quantum_ns
    ~cap ~inject_depth ~stages ~quanta ~stalls ~gc_pause_ns] considers
    one completed request for retention.  [stages] (the seven stages in
    {!Profile.stages} order, e.g. {!Profile.last}) is copied only on
    admission.  The disabled path is one branch, the enabled reject
    path one extra compare; neither allocates.  Single writer. *)
val offer :
  t ->
  now_ns:int ->
  seq:int ->
  class_idx:int ->
  worker:int ->
  sojourn_ns:int ->
  quantum_ns:int ->
  cap:int ->
  inject_depth:int ->
  stages:int array ->
  quanta:int ->
  stalls:int ->
  gc_pause_ns:int ->
  unit

(** [offered t] — requests considered. *)
val offered : t -> int

(** [admitted t] — requests that were retained (including later
    evictions). *)
val admitted : t -> int

(** [entries t] — snapshot of every currently retained entry: current
    window, previous window and the breach ring, deduplicated by
    sequence id, slowest first. *)
val entries : t -> entry list

(** [retained t] = [List.length (entries t)]. *)
val retained : t -> int

(** [top t ~limit] — the [limit] slowest retained entries. *)
val top : t -> limit:int -> entry list

(** [dossier_json ~class_name e] — one entry as a JSON object; all
    durations are exact nanosecond integers so the telescoping
    invariant ([stages_ns] sums to [sojourn_ns]) is checkable on the
    wire. *)
val dossier_json : class_name:(int -> string) -> entry -> string

(** [dossiers_json ?class_name t es] — the [/outliers] / RPC document:
    configuration, offered/admitted/retained counts, and the dossier
    array. *)
val dossiers_json : ?class_name:(int -> string) -> t -> entry list -> string

(** [render ?class_name es] — the [tq_load --outliers] table: one row
    per dossier with sojourn, the seven stages (µs), quanta, GC pause
    time and queue depth. *)
val render : ?class_name:(int -> string) -> entry list -> string

(** [filter_records t records] — only the spans that matter for the
    retained requests: their own spans plus any core-level span
    (stall, GC pause) overlapping a retained residency. *)
val filter_records : t -> Span.record list -> Span.record list

(** [to_chrome t records] — outlier-only Perfetto export: the
    {!filter_records} cut rendered via {!Span.records_to_chrome}, so a
    multi-minute run yields a readable timeline of just the slow
    requests. *)
val to_chrome : t -> Span.record list -> string
