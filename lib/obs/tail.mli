(** Tail-based span sampling: always-on forensics for the slow few.

    Full tracing ([--obs]) records every request and is unusable at
    calibrated load; aggregate views ({!Profile} histograms, {!Latency}
    ladders) cannot say {e which} stage hurt {e which} request.  This
    module keeps the middle ground production µs-scale systems use
    (RackSched's per-request tail accounting): a per-lane bounded
    reservoir retaining only the K slowest requests per sliding window
    plus any request breaching a latency threshold.

    Hot-path contract, same discipline as {!Span}'s null sink: a sink
    of a disabled collection has [k = 0], so {!offer} is a single
    branch over all-int arguments with zero allocation.  On the enabled
    path the common case (the request was fast) is one compare against
    the window's floor; admissions touch at most K slots — K a small
    configured constant — and are the only allocation.

    Single-writer per sink (the owning lane's dispatcher); retained
    entries are published through per-slot [Atomic.t]s holding
    immutable records, so cross-lane readers (Stats RPC, HTTP
    [/outliers]) never see a torn entry. *)

(** One retained slow request: identity, residency, and the controller
    and queue state sampled at dispatch time.  [e_cap = -1] means
    admission was unlimited; [e_breach] marks a threshold breach (as
    opposed to a merely-slowest-K admission). *)
type entry = {
  e_seq : int;  (** request sequence id, = [Span.record.req_id] *)
  e_class : int;  (** request class index *)
  e_lane : int;  (** owning dispatcher lane *)
  e_worker : int;  (** worker that executed *)
  e_sojourn_ns : int;  (** sojourn observed at reply pop *)
  e_t0_ns : int;  (** request arrival stamp *)
  e_end_ns : int;  (** reply pop stamp *)
  e_quantum_ns : int;  (** controller quantum for the class at dispatch *)
  e_cap : int;  (** admission cap at dispatch, -1 = unlimited *)
  e_inject_depth : int;  (** target worker's inject-ring depth at dispatch *)
  e_breach : bool;
}

(** A per-lane reservoir.  Single-writer: only the owning lane may
    {!offer}. *)
type sink

(** A collection of per-lane sinks plus the shared configuration. *)
type t

(** The shared disabled collection: registration hands out
    {!null_sink}, nothing is ever retained.  What every [?tail]
    argument defaults to. *)
val null : t

(** The sink that rejects everything at the cost of one branch. *)
val null_sink : sink

(** [create ?k ?threshold_ns ?window_ns ()] — an enabled collection
    retaining the [k] (default 16) slowest requests per lane per
    [window_ns] (default 1s) sliding window, plus every request with
    sojourn ≥ [threshold_ns] (default 0 = no threshold rule). *)
val create : ?k:int -> ?threshold_ns:int -> ?window_ns:int -> unit -> t

(** [enabled t] — whether sinks of [t] retain anything; guard extra
    work (clock reads, depth sampling) on this. *)
val enabled : t -> bool

(** [k t] — the per-lane dossier budget. *)
val k : t -> int

(** [threshold_ns t] — the breach threshold, 0 when none. *)
val threshold_ns : t -> int

(** [window_ns t] — the sliding-window length. *)
val window_ns : t -> int

(** [register t ~lane] — a fresh sink owned by dispatcher lane [lane]
    (registration is thread-safe; offering is not).  Returns
    {!null_sink} when [t] is disabled. *)
val register : t -> lane:int -> sink

(** [offer sink ~now_ns ~seq ~class_idx ~worker ~sojourn_ns ~t0_ns
    ~quantum_ns ~cap ~inject_depth] considers one
    completed request for retention.  All-int arguments; the disabled
    path is one branch, the enabled reject path one extra compare. *)
val offer :
  sink ->
  now_ns:int ->
  seq:int ->
  class_idx:int ->
  worker:int ->
  sojourn_ns:int ->
  t0_ns:int ->
  quantum_ns:int ->
  cap:int ->
  inject_depth:int ->
  unit

(** [offered t] — requests considered across all sinks. *)
val offered : t -> int

(** [admitted t] — requests that were retained (including later
    evictions). *)
val admitted : t -> int

(** [entries t] — snapshot of every currently retained entry across
    lanes: current window, previous window and the breach rings,
    deduplicated by sequence id, slowest first. *)
val entries : t -> entry list

(** [retained t] = [List.length (entries t)]. *)
val retained : t -> int

(** [top t ~limit] — the [limit] slowest retained entries. *)
val top : t -> limit:int -> entry list

(** A retained request enriched from the span stream: exact per-stage
    attribution (when the request's spans telescope — see
    {!Profile.request_stages}) plus stall / GC-pause
    annotations from core-level spans overlapping its residency.
    When [d_attributed], [d_sojourn_ns] is the span-derived sojourn
    and equals the sum of [d_stages] exactly; otherwise it is the
    admission-time sojourn and [d_stages] is empty. *)
type dossier = {
  d_entry : entry;
  d_attributed : bool;
  d_sojourn_ns : int;
  d_stages : (Profile.stage * int) list;
  d_quanta : int;  (** quanta the request ran; preemptions = quanta - 1 *)
  d_stalls : int;  (** stall spans on the executing worker during residency *)
  d_gc_pauses : int;  (** GC pauses (any domain) overlapping residency *)
  d_gc_pause_ns : int;  (** total overlapping GC pause time *)
}

(** [dossiers t ~records ~limit] — the top-[limit] retained entries
    enriched against a merged span stream (see {!Span.merge}). *)
val dossiers : t -> records:Span.record list -> limit:int -> dossier list

(** [dossier_json ~class_name d] — one dossier as a JSON object; all
    durations are exact nanosecond integers so the telescoping
    invariant is checkable on the wire. *)
val dossier_json : class_name:(int -> string) -> dossier -> string

(** [dossiers_json ?class_name t ds] — the [/outliers] / RPC document:
    configuration, offered/admitted/retained counts, and the dossier
    array. *)
val dossiers_json : ?class_name:(int -> string) -> t -> dossier list -> string

(** [render ?class_name ds] — the [tq_load --outliers] table: one row
    per dossier with sojourn, the seven stages (µs), quanta, GC and
    queue depth. *)
val render : ?class_name:(int -> string) -> dossier list -> string

(** [filter_records t records] — only the spans that matter for the
    retained requests: their own spans plus any core-level span
    (stall, GC pause) overlapping a retained residency. *)
val filter_records : t -> Span.record list -> Span.record list

(** [to_chrome t records] — outlier-only Perfetto export: the
    {!filter_records} cut rendered via {!Span.records_to_chrome}, so a
    multi-minute run yields a readable timeline of just the slow
    requests. *)
val to_chrome : t -> Span.record list -> string
