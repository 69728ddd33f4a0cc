(* Multicore sweep orchestration over the experiment registry.

   The unit of parallelism is the registry *point* (one table).  Points
   are flattened in registry order into a task array, fanned out over
   the Domain_pool, and the merge step reassembles per-experiment table
   lists from the task-indexed result array — so the output is the same
   bytes as the sequential path regardless of domain count or completion
   order.

   Each task first consults the result cache under a key of
   (experiment id, point label, parameter fingerprint, registry seed):
   only points whose inputs changed are recomputed.  Pool utilization
   and cache hit/miss totals are published through the Tq_obs counter
   registry when an [obs] context is supplied. *)

module Registry = Tq_experiments.Registry

(* Every registry point seeds its own PRNGs from this root (via
   Tq_sched.Experiment's default); it is part of the cache key so a
   future change to the registry's seeding invalidates old entries. *)
let registry_seed = 42L

let fingerprint ?(overheads = Tq_sched.Overheads.tq_default) () =
  Format.asprintf "tq_par-fp-v1 scale=%g cores=16 overheads=[%a]"
    Tq_experiments.Harness.scale Tq_sched.Overheads.pp overheads

type outcome = {
  experiment : Registry.experiment;
  tables : Tq_util.Text_table.t list;
}

type stats = { pool : Domain_pool.stats; cache_hits : int; cache_misses : int }

let publish_obs obs (s : stats) =
  match obs with
  | None -> ()
  | Some (o : Tq_obs.Obs.t) ->
      let c = o.Tq_obs.Obs.counters in
      Tq_obs.Counters.add (Tq_obs.Counters.counter c "par.cache.hits") s.cache_hits;
      Tq_obs.Counters.add (Tq_obs.Counters.counter c "par.cache.misses") s.cache_misses;
      Array.iteri
        (fun i tasks ->
          Tq_obs.Counters.add
            (Tq_obs.Counters.counter c (Printf.sprintf "par.domain%d.tasks" i))
            tasks;
          Tq_obs.Counters.set
            (Tq_obs.Counters.gauge c (Printf.sprintf "par.domain%d.utilization" i))
            (if s.pool.wall_ns = 0 then 0.0
             else
               float_of_int s.pool.per_domain_busy_ns.(i)
               /. float_of_int s.pool.wall_ns))
        s.pool.per_domain_tasks

let run ?jobs ?cache ?obs (experiments : Registry.experiment list) =
  let cache = match cache with Some c -> c | None -> Result_cache.disabled () in
  let params = fingerprint () in
  let tasks =
    Array.of_list
      (List.concat_map
         (fun (e : Registry.experiment) ->
           List.map
             (fun (p : Registry.point) ->
               let key =
                 Result_cache.key ~experiment:e.id ~point:p.label ~params
                   ~seed:registry_seed
               in
               fun () ->
                 match Result_cache.find cache key with
                 | Some table -> table
                 | None ->
                     let table = p.table () in
                     Result_cache.store cache key table;
                     table)
             e.points)
         experiments)
  in
  let results, pool = Domain_pool.run ?jobs tasks in
  (* Merge: peel the flat result array back into registry order. *)
  let cursor = ref 0 in
  let outcomes =
    List.map
      (fun (e : Registry.experiment) ->
        let tables =
          List.map
            (fun (_ : Registry.point) ->
              let t = results.(!cursor) in
              incr cursor;
              t)
            e.points
        in
        { experiment = e; tables })
      experiments
  in
  let stats =
    { pool; cache_hits = Result_cache.hits cache; cache_misses = Result_cache.misses cache }
  in
  publish_obs obs stats;
  (outcomes, stats)

let run_and_print ?jobs ?cache ?obs experiments =
  let outcomes, stats = run ?jobs ?cache ?obs experiments in
  List.iter (fun o -> Registry.print_tables o.experiment o.tables) outcomes;
  stats

let grid ?jobs ~experiment ~seed ~f points =
  Domain_pool.run ?jobs
    (Array.mapi
       (fun i x () ->
         let rng = Seed_stream.prng ~experiment ~point:i ~seed in
         f ~rng ~index:i x)
       points)

let summary (s : stats) =
  let util =
    Array.to_list s.pool.per_domain_busy_ns
    |> List.map (fun busy ->
           if s.pool.wall_ns = 0 then "-"
           else Printf.sprintf "%.0f%%" (100.0 *. float_of_int busy /. float_of_int s.pool.wall_ns))
    |> String.concat " "
  in
  Printf.sprintf
    "jobs=%d wall=%.1fs cache %d hit / %d miss, domain utilization: %s"
    s.pool.jobs
    (float_of_int s.pool.wall_ns /. 1e9)
    s.cache_hits s.cache_misses util
