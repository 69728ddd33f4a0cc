(** Multicore orchestration of the experiment registry's sweep grids.

    Flattens registry experiments into independent single-table points,
    fans them out over the {!Domain_pool}, consults the {!Result_cache}
    per point, and merges the tables back in registry order.  The
    printed output at any [jobs] value is byte-identical to the
    sequential path; only the wall-clock time changes. *)

(** The root seed every registry point derives its PRNGs from; part of
    every cache key. *)
val registry_seed : int64

(** [fingerprint ()] captures everything code-side that determines a
    registry table's content: a schema version, [TQ_BENCH_SCALE], the
    modeled core count and the full cost model ([overheads] defaults to
    {!Tq_sched.Overheads.tq_default}).  Changing any component changes
    every cache key, invalidating the cache wholesale. *)
val fingerprint : ?overheads:Tq_sched.Overheads.t -> unit -> string

(** One experiment's recomputed (or cache-served) tables, in point
    order. *)
type outcome = {
  experiment : Tq_experiments.Registry.experiment;
  tables : Tq_util.Text_table.t list;
}

(** Execution report: pool behaviour plus cache effectiveness. *)
type stats = {
  pool : Domain_pool.stats;
  cache_hits : int;  (** points served from [_tq_cache/] *)
  cache_misses : int;  (** points recomputed *)
}

(** [run ?jobs ?cache ?obs experiments] computes every point of every
    listed experiment — in parallel when [jobs > 1] — and returns the
    outcomes in input order.  [cache] defaults to a disabled cache
    (always recompute); [obs], when given, receives the pool utilization
    and cache counters in its counter registry (under ["par.*"]). *)
val run :
  ?jobs:int ->
  ?cache:Result_cache.t ->
  ?obs:Tq_obs.Obs.t ->
  Tq_experiments.Registry.experiment list ->
  outcome list * stats

(** [run_and_print] is {!run} followed by
    {!Tq_experiments.Registry.print_tables} on each outcome, preserving
    registry order and formatting. *)
val run_and_print :
  ?jobs:int ->
  ?cache:Result_cache.t ->
  ?obs:Tq_obs.Obs.t ->
  Tq_experiments.Registry.experiment list ->
  stats

(** [grid ?jobs ~experiment ~seed ~f points] — generic parallel map for
    custom sweeps: point [i] runs [f ~rng ~index:i points.(i)] with its
    own {!Seed_stream} generator keyed by [(experiment, i, seed)], so
    results are independent of [jobs] and of completion order. *)
val grid :
  ?jobs:int ->
  experiment:string ->
  seed:int64 ->
  f:(rng:Tq_util.Prng.t -> index:int -> 'a -> 'b) ->
  'a array ->
  'b array * Domain_pool.stats

(** [summary stats] — one human-readable line: jobs, wall time, cache
    hits/misses and per-domain utilization. *)
val summary : stats -> string
