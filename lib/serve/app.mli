(** Per-worker application state and request execution.

    Each worker domain owns one [App.t] — a private key-value store and
    TPC-C database plus a seeded PRNG — so handlers never share mutable
    state across domains.  The dispatcher keeps per-key results
    coherent by steering every KV operation for a key to the same
    worker ({!Protocol.steering_key}); TPC-C and echo requests carry no
    cross-request state and balance freely.

    Handlers run inside worker fibers under forced multitasking: the
    echo spin loop calls the yield probe ({!Tq_runtime.Probe_api.probe})
    every iteration, so a long spin is preempted at quantum boundaries
    exactly like the paper's instrumented benchmarks. *)

type t

(** [create ~seed ()] builds one worker's state: a KV store prepopulated
    with [kv_keys] (default 1024) deterministic keys ([key000042]-style,
    so load-generator GETs hit), and a default-scale TPC-C database. *)
val create : ?kv_keys:int -> seed:int64 -> unit -> t

(** [kv_key i] — the canonical prepopulated key name for index [i] (the
    generator uses the same function, keeping hit rates meaningful):
    [Printf.sprintf "key%06d" i]. *)
val kv_key : int -> string

(** [kv_value i] — the value {!create} stores under [kv_key i]:
    [Printf.sprintf "value%06d" i]. *)
val kv_value : int -> string

(** [execute t ~req_id req] runs one request to completion (yielding at
    probes) and returns its response.  Handler exceptions become
    [Protocol.Error] responses rather than killing the worker. *)
val execute : t -> req_id:int -> Protocol.request -> Protocol.response
