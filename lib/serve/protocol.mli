(** Wire protocol of the live RPC server: length-prefixed binary frames
    over a byte stream.

    Every message is a 4-byte big-endian payload length followed by the
    payload.  Requests carry a client-chosen 64-bit id that the server
    echoes back, so clients can pipeline arbitrarily deep on one
    connection; responses to one connection's requests arrive in
    completion order, not submission order (workers multitask).

    The request classes mirror the paper's evaluation applications: a
    spin-loop echo (the synthetic microbenchmark), key-value GET/SET
    (the memcached/RocksDB stand-in, {!Tq_kv}), and TPC-C transactions
    ({!Tq_tpcc}). *)

(** What a {!request.Stats} call asks the server to render: the live
    metrics snapshot as JSON, the same snapshot as Prometheus text
    exposition ({!Tq_obs.Expo}), or the per-stage sojourn decomposition
    ({!Tq_obs.Profile}) of every completed request as JSON or as the
    human-readable table.  View tag 2, once a span-trace view, is
    retired and decodes as a malformed frame. *)
type stats_view =
  | Stats_json
  | Stats_text
  | Stats_breakdown
  | Stats_breakdown_text
  | Stats_control
      (** the feedback controller's live state (ticks, decisions,
          current quanta and shed limit, per-class burn) as one JSON
          object; an [Error] status when the server runs without
          [--adaptive] *)
  | Stats_outliers of { limit : int }
      (** the tail-forensics dossiers ({!Tq_obs.Tail}): the [limit]
          slowest retained requests ([limit = 0] for all) with exact
          per-stage attribution, as one JSON object; an [Error] status
          when the server runs without tail sampling *)
  | Stats_outliers_text of { limit : int }
      (** the same dossiers as a human-readable table *)

(** One RPC request. *)
type request =
  | Echo of { spin_ns : int; payload : string }
      (** spin for [spin_ns] of wall-clock work under forced
          multitasking, then echo [payload] *)
  | Kv_get of { key : string }
  | Kv_set of { key : string; value : string }
  | Tpcc of { kind : Tq_tpcc.Transactions.kind }
  | Stats of { view : stats_view }
      (** introspection: answered synchronously by the dispatcher, never
          dispatched to a worker, and counted in [stats_served] rather
          than [parsed] — so the [parsed = dispatched + shed] invariant
          stays about request work *)

(** Server verdict carried by every response. *)
type status =
  | Ok
  | Shed  (** rejected by admission control before any work *)
  | Error of string  (** handler raised; the body holds the message *)

(** One RPC response: the echoed request id, a verdict and a
    class-specific body. *)
type response = { req_id : int; status : status; body : string }

(** Largest accepted frame payload; a peer announcing more is a protocol
    error and its connection is closed. *)
val max_frame_bytes : int

(** {2 Request classes} *)

(** Number of request classes (for per-class metric arrays). *)
val class_count : int

(** [class_of_request r] — stable index in [0, class_count). *)
val class_of_request : request -> int

(** [class_name i] — ["echo"], ["kv_get"], ["kv_set"], ["tpcc"] or
    ["stats"]. *)
val class_name : int -> string

(** [steering_key r] — [Some key] for requests that must stick to one
    worker (KV operations: per-key get-after-set consistency needs all
    operations on a key to land on the same core's store); [None] for
    requests the dispatcher may JSQ-balance freely. *)
val steering_key : request -> string option

(** {2 Encoding} *)

(** [encode_request b ~req_id r] appends one complete request frame. *)
val encode_request : Buffer.t -> req_id:int -> request -> unit

(** [encode_response b r] appends one complete response frame. *)
val encode_response : Buffer.t -> response -> unit

(** [response_frame r] — one freshly allocated complete response frame
    (what workers push onto reply rings). *)
val response_frame : response -> bytes

(** [response_frame_len r] — exact size in bytes of [r]'s complete
    frame (length prefix included); what a worker asks the buffer pool
    for before {!encode_response_into}. *)
val response_frame_len : response -> int

(** [encode_response_into buf ~off r] writes [r]'s complete frame into
    [buf] starting at [off] and returns the number of bytes written
    (= {!response_frame_len}).  The zero-copy twin of
    {!response_frame}: encode straight into a pooled buffer, no
    intermediate [Buffer].  Raises [Invalid_argument] when the frame
    would not fit or exceed {!max_frame_bytes}. *)
val encode_response_into : bytes -> off:int -> response -> int

(** [decode_request payload] — parse one frame payload (without the
    length prefix). *)
val decode_request : bytes -> (int * request, string) result

(** [decode_response payload] — parse one frame payload. *)
val decode_response : bytes -> (response, string) result

(** {2 Stream reassembly}

    A growable byte accumulator that splits a TCP byte stream back into
    frame payloads; each side keeps one per connection. *)
module Reassembly : sig
  type t

  (** An empty accumulator. *)
  val create : unit -> t

  (** [add t chunk n] appends the first [n] bytes of [chunk]. *)
  val add : t -> bytes -> int -> unit

  (** [next t] pops the next complete frame payload, if one is buffered.
      [Error _] on an oversized or corrupt length prefix (close the
      connection). *)
  val next : t -> (bytes option, string) result

  (** Bytes buffered but not yet returned as frames. *)
  val pending_bytes : t -> int
end

(** {2 Write accumulation}

    The mirror image of {!Reassembly}: a growable byte region with
    produce-at-back / consume-from-front semantics, one per connection
    on the server side.  Reply frames are blitted in; a flush peeks at
    the live region, writes what the socket takes, and consumes exactly
    that — a partial write costs a cursor bump, not a re-copy, and a
    full flush never calls [Buffer.contents]. *)
module Outbuf : sig
  type t

  (** [create ?capacity ()] — an empty accumulator (default initial
      capacity 4096 bytes; grows by doubling). *)
  val create : ?capacity:int -> unit -> t

  (** [add_bytes t src ~off ~len] appends [len] bytes of [src] starting
      at [off].  Raises [Invalid_argument] on a bad slice. *)
  val add_bytes : t -> bytes -> off:int -> len:int -> unit

  (** [add_buffer t src] appends the whole contents of the [Buffer]
      (a direct blit; the buffer is not cleared). *)
  val add_buffer : t -> Buffer.t -> unit

  (** [peek t] — [(buf, off, len)]: the pending region, valid until the
      next mutating call.  Pass straight to [Unix.write]. *)
  val peek : t -> bytes * int * int

  (** [consume t n] drops the first [n] pending bytes (what the socket
      accepted).  Raises [Invalid_argument] when [n] exceeds the pending
      count. *)
  val consume : t -> int -> unit

  (** Bytes appended but not yet consumed. *)
  val pending_bytes : t -> int

  (** [is_empty t] — no pending bytes (the connection needs no write
      polling). *)
  val is_empty : t -> bool
end
