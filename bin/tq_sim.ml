(* tq_sim: command-line driver for the Tiny Quanta reproduction.

   Subcommands:
     list                      enumerate reproducible experiments
     run <id>...               regenerate specific figures/tables
     all                       regenerate everything
     sweep                     custom latency-vs-load sweep
     trace <system> <workload> record one run and export an inspectable schedule
     probe-place <program>     show TQ probe placement on a benchmark program *)

open Cmdliner

let list_cmd =
  let doc = "List every reproducible experiment (figures and tables)." in
  let run () =
    List.iter
      (fun (e : Tq_experiments.Registry.experiment) ->
        Printf.printf "%-12s %s\n" e.id e.summary)
      Tq_experiments.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

(* --jobs 0 means auto: the recommended domain count. *)
let resolve_jobs jobs = if jobs = 0 then Domain.recommended_domain_count () else max 1 jobs

let jobs_arg =
  Arg.(value & opt int 0
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"worker domains for the sweep (0 = auto: the recommended domain count)")

let no_cache_arg =
  Arg.(value & flag
       & info [ "no-cache" ]
           ~doc:"recompute every point, bypassing the $(b,_tq_cache/) result cache")

let run_ids jobs no_cache ids =
  let missing = List.filter (fun id -> Tq_experiments.Registry.find id = None) ids in
  if missing <> [] then begin
    Printf.eprintf "unknown experiment id(s): %s\n" (String.concat ", " missing);
    exit 1
  end;
  let experiments = List.filter_map Tq_experiments.Registry.find ids in
  let cache =
    if no_cache then Tq_par.Result_cache.disabled () else Tq_par.Result_cache.create ()
  in
  let stats =
    Tq_par.Sweep.run_and_print ~jobs:(resolve_jobs jobs) ~cache experiments
  in
  Printf.eprintf "[%s]\n" (Tq_par.Sweep.summary stats)

let run_cmd =
  let doc =
    "Regenerate the named figures/tables (see $(b,list)).  Points are fanned out \
     over domains and served from $(b,_tq_cache/) when their inputs are unchanged."
  in
  let ids = Arg.(non_empty & pos_all string [] & info [] ~docv:"ID") in
  Cmd.v (Cmd.info "run" ~doc) Term.(const run_ids $ jobs_arg $ no_cache_arg $ ids)

let all_cmd =
  let doc = "Regenerate every figure and table (set TQ_BENCH_SCALE to trade time for precision)." in
  let run jobs no_cache =
    run_ids jobs no_cache
      (List.map (fun (e : Tq_experiments.Registry.experiment) -> e.id)
         Tq_experiments.Registry.all)
  in
  Cmd.v (Cmd.info "all" ~doc) Term.(const run $ jobs_arg $ no_cache_arg)

(* --- shared system/workload resolution --- *)

let workload_names =
  List.map (fun (w : Tq_workload.Service_dist.t) -> w.name) Tq_workload.Table1.all

let system_names =
  [ "tq"; "tq-steal"; "tq-las"; "tq-fcfs"; "tq-rand"; "tq-power-two"; "shinjuku";
    "concord"; "caladan"; "caladan-iokernel" ]

let find_workload name =
  match Tq_workload.Table1.find name with
  | Some w -> w
  | None ->
      Printf.eprintf "unknown workload %s (try: %s)\n" name
        (String.concat ", " workload_names);
      exit 1

let find_system name ~quantum_ns =
  match name with
  | "tq" -> Tq_sched.Presets.tq ~quantum_ns ()
  | "tq-steal" -> Tq_sched.Presets.tq_steal ~quantum_ns ()
  | "tq-las" -> Tq_sched.Presets.tq_las ()
  | "tq-fcfs" -> Tq_sched.Presets.tq_fcfs ()
  | "tq-rand" -> Tq_sched.Presets.tq_rand ~quantum_ns ()
  | "tq-power-two" -> Tq_sched.Presets.tq_power_two ~quantum_ns ()
  | "shinjuku" -> Tq_sched.Presets.shinjuku ~quantum_ns ()
  | "concord" -> Tq_sched.Presets.concord ~quantum_ns ()
  | "caladan" -> Tq_sched.Presets.caladan ~mode:Tq_sched.Caladan.Directpath ()
  | "caladan-iokernel" -> Tq_sched.Presets.caladan ~mode:Tq_sched.Caladan.Iokernel ()
  | other ->
      Printf.eprintf "unknown system %s (try: %s)\n" other (String.concat ", " system_names);
      exit 1

(* --- sweep --- *)

let sweep system_name workload_name quantum_us loads duration_ms seed trace_out jobs =
  let workload = find_workload workload_name in
  let quantum_ns = Tq_util.Time_unit.us quantum_us in
  let system = find_system system_name ~quantum_ns in
  let capacity = Tq_workload.Arrivals.capacity_rps ~cores:16 workload in
  let duration_ns = Tq_util.Time_unit.ms duration_ms in
  let seed = Int64.of_int seed in
  let t =
    Tq_util.Text_table.create
      ~title:
        (Printf.sprintf "%s on %s (q=%gus, capacity %.2f Mrps)" system_name workload_name
           quantum_us (capacity /. 1e6))
      ~columns:
        ([ "load"; "rate(Mrps)" ]
        @ List.concat_map
            (fun i ->
              let name = Tq_workload.Service_dist.class_name workload i in
              [ name ^ " p50(us)"; name ^ " p99.9(us)" ])
            (List.init (Tq_workload.Service_dist.class_count workload) Fun.id))
  in
  let last = List.length loads - 1 in
  (* Each load point runs on its own Seed_stream generator keyed by
     (sweep key, point index, seed): results do not depend on --jobs or
     on completion order.  With --trace, the highest-index load point
     (the most interesting schedule) records events for export. *)
  let sweep_key = Printf.sprintf "sweep:%s:%s:%g" system_name workload_name quantum_us in
  let results, _ =
    Tq_par.Sweep.grid ~jobs:(resolve_jobs jobs) ~experiment:sweep_key ~seed
      ~f:(fun ~rng ~index load ->
        let rate = load *. capacity in
        let obs =
          match trace_out with
          | Some _ when index = last -> Some (Tq_obs.Obs.create ())
          | _ -> None
        in
        let point_seed = Tq_util.Prng.bits64 rng in
        let r =
          Tq_sched.Experiment.run ~seed:point_seed ?obs ~system ~workload
            ~rate_rps:rate ~duration_ns ()
        in
        (load, r, obs))
      (Array.of_list loads)
  in
  Array.iter
    (fun (load, (r : Tq_sched.Experiment.result), obs) ->
      let rate = load *. capacity in
      (match (obs, trace_out) with
      | Some obs, Some path ->
          let spans = obs.Tq_obs.Obs.spans in
          Tq_obs.Span.write_file ~process:"tq_sim" spans path;
          Printf.printf "wrote %s (%d spans, %d overwritten) for load %.0f%%\n" path
            (Tq_obs.Span.total spans - Tq_obs.Span.dropped spans)
            (Tq_obs.Span.dropped spans) (100.0 *. load)
      | _ -> ());
      let cells =
        List.concat_map
          (fun i ->
            [
              Tq_util.Text_table.cell_f
                (Tq_workload.Metrics.sojourn_percentile r.metrics ~class_idx:i 50.0 /. 1e3);
              Tq_util.Text_table.cell_f
                (Tq_workload.Metrics.sojourn_percentile r.metrics ~class_idx:i 99.9 /. 1e3);
            ])
          (List.init (Tq_workload.Service_dist.class_count workload) Fun.id)
      in
      Tq_util.Text_table.add_row t
        (Printf.sprintf "%.0f%%" (100.0 *. load)
        :: Printf.sprintf "%.2f" (rate /. 1e6)
        :: cells))
    results;
  Tq_util.Text_table.print t

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed, for reproducible runs")

let sweep_cmd =
  let doc = "Run a custom latency-vs-load sweep for one system and workload." in
  let system =
    Arg.(value & opt string "tq"
         & info [ "system" ] ~docv:"SYSTEM" ~doc:(String.concat " | " system_names))
  in
  let workload =
    Arg.(value & opt string "extreme-bimodal"
         & info [ "workload" ] ~docv:"WORKLOAD" ~doc:"Table 1 workload name")
  in
  let quantum = Arg.(value & opt float 2.0 & info [ "quantum-us" ] ~doc:"quantum size in us") in
  let loads =
    Arg.(value & opt (list float) [ 0.3; 0.5; 0.7; 0.9 ]
         & info [ "loads" ] ~doc:"load fractions of capacity")
  in
  let duration =
    Arg.(value & opt float 50.0 & info [ "duration-ms" ] ~doc:"simulated duration per point")
  in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"record the last load point and write a Chrome trace-event JSON")
  in
  Cmd.v (Cmd.info "sweep" ~doc)
    Term.(const sweep $ system $ workload $ quantum $ loads $ duration $ seed_arg $ trace_out
          $ jobs_arg)

(* --- trace --- *)

let trace_run system_name workload_name quantum_us load duration_ms seed out csv_out
    dump_events =
  let workload = find_workload workload_name in
  let quantum_ns = Tq_util.Time_unit.us quantum_us in
  let system = find_system system_name ~quantum_ns in
  let capacity = Tq_workload.Arrivals.capacity_rps ~cores:16 workload in
  let rate = load *. capacity in
  let duration_ns = Tq_util.Time_unit.ms duration_ms in
  let obs = Tq_obs.Obs.create () in
  let r =
    Tq_sched.Experiment.run ~seed:(Int64.of_int seed) ~obs ~system ~workload
      ~rate_rps:rate ~duration_ns ()
  in
  Printf.printf "%s on %s: load %.0f%% (%.2f Mrps), %.1f ms simulated, %d requests, %d sim events\n"
    system_name workload_name (100.0 *. load) (rate /. 1e6) duration_ms r.offered r.events;
  let spans = obs.Tq_obs.Obs.spans in
  Tq_obs.Span.write_file ~process:"tq_sim" spans out;
  Printf.printf "wrote %s: %d spans in buffer (%d recorded, %d overwritten)\n" out
    (Tq_obs.Span.total spans - Tq_obs.Span.dropped spans)
    (Tq_obs.Span.total spans) (Tq_obs.Span.dropped spans);
  print_endline "open it in https://ui.perfetto.dev (one lane per dispatcher/worker core)";
  print_newline ();
  print_endline "counters:";
  print_string (Tq_obs.Counters.dump obs.Tq_obs.Obs.counters);
  print_newline ();
  (match r.timeseries with
  | Some ts ->
      print_string
        (Tq_obs.Timeseries.render
           ~title:(Printf.sprintf "%s on %s: sampled occupancy" system_name workload_name)
           ts);
      (match csv_out with
      | Some path ->
          let oc = open_out path in
          output_string oc (Tq_obs.Timeseries.to_csv ts);
          close_out oc;
          Printf.printf "wrote %s (%d samples)\n" path (Tq_obs.Timeseries.length ts)
      | None -> ())
  | None -> ());
  if dump_events > 0 then begin
    print_newline ();
    print_string (Tq_obs.Span.to_text ~limit:dump_events spans)
  end

let trace_cmd =
  let doc =
    "Record one run's spans and export an inspectable schedule: a \
     Chrome trace-event JSON (Perfetto), the counter registry, and sampled \
     occupancy time series."
  in
  let system =
    Arg.(value & pos 0 string "tq" & info [] ~docv:"SYSTEM" ~doc:(String.concat " | " system_names))
  in
  let workload =
    Arg.(value & pos 1 string "extreme-bimodal"
         & info [] ~docv:"WORKLOAD" ~doc:"Table 1 workload name")
  in
  let quantum = Arg.(value & opt float 2.0 & info [ "quantum-us" ] ~doc:"quantum size in us") in
  let load =
    Arg.(value & opt float 0.7 & info [ "load" ] ~doc:"load fraction of 16-core capacity")
  in
  let duration =
    Arg.(value & opt float 2.0
         & info [ "duration-ms" ]
             ~doc:"simulated duration (keep small: tracing records every event)")
  in
  let out =
    Arg.(value & opt string "tq_trace.json"
         & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Chrome trace-event JSON output path")
  in
  let csv_out =
    Arg.(value & opt (some string) None
         & info [ "csv" ] ~docv:"FILE" ~doc:"also write the occupancy time series as CSV")
  in
  let dump_events =
    Arg.(value & opt int 0
         & info [ "events" ] ~docv:"N" ~doc:"also print the last N spans as text")
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(const trace_run $ system $ workload $ quantum $ load $ duration $ seed_arg $ out
          $ csv_out $ dump_events)

(* --- faults --- *)

let faults_run system_name workload_name quick =
  let workload = find_workload workload_name in
  let system = find_system system_name ~quantum_ns:(Tq_util.Time_unit.us 2.0) in
  List.iter Tq_util.Text_table.print
    (Tq_experiments.Faults.sweep ~quick ~system ~system_name ~workload ())

let faults_cmd =
  let doc =
    "Sweep fault intensity against one system and workload: goodput/tail degradation \
     under core stalls, recovery from a permanent core failure, and overload \
     protection by admission control."
  in
  let system =
    Arg.(value & pos 0 string "tq" & info [] ~docv:"SYSTEM" ~doc:(String.concat " | " system_names))
  in
  let workload =
    Arg.(value & pos 1 string "high-bimodal"
         & info [] ~docv:"WORKLOAD" ~doc:"Table 1 workload name (or table1-a..f alias)")
  in
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"short runs, fewer sweep points (CI smoke)")
  in
  Cmd.v (Cmd.info "faults" ~doc) Term.(const faults_run $ system $ workload $ quick)

(* --- adaptive --- *)

let adaptive_run workload_name quick =
  let workload = find_workload workload_name in
  List.iter
    (fun o -> Tq_util.Text_table.print (Tq_experiments.Adaptive.table o))
    (Tq_experiments.Adaptive.run_all ~quick ~workload ())

let adaptive_cmd =
  let doc =
    "Feedback-controlled quanta and admission (Tq_control) against every static \
     quantum setting, under heavy core stalls and sustained overload; the adaptive \
     row must match or beat the best static row on goodput-under-deadline."
  in
  let workload =
    Arg.(value & pos 0 string "high-bimodal"
         & info [] ~docv:"WORKLOAD" ~doc:"Table 1 workload name (or table1-a..f alias)")
  in
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"short runs, smaller static sweep (CI smoke)")
  in
  Cmd.v (Cmd.info "adaptive" ~doc) Term.(const adaptive_run $ workload $ quick)

(* --- probe-place --- *)

let probe_place name bound =
  let named =
    match Tq_instrument.Bench_programs.find name with
    | Some p -> Some p
    | None ->
        if name = "rocksdb-get" then Some Tq_instrument.Bench_programs.rocksdb_get
        else if name = "rocksdb-scan" then Some Tq_instrument.Bench_programs.rocksdb_scan
        else None
  in
  match named with
  | None ->
      Printf.eprintf "unknown program %s (see DESIGN.md for the suite)\n" name;
      exit 1
  | Some named ->
      let prog = Tq_instrument.Bench_programs.lowered named in
      let tq = Tq_instrument.Tq_pass.instrument ~config:{ Tq_instrument.Tq_pass.bound; non_reentrant = [] } prog in
      let ci = Tq_instrument.Ci_pass.instrument prog in
      Printf.printf "program %s: %d instructions static\n" name
        (List.fold_left
           (fun acc (_, f) -> acc + Tq_ir.Cfg.func_instruction_count f)
           0 prog.Tq_ir.Cfg.funcs);
      Printf.printf "CI probes: %d, TQ probes: %d (bound %d instructions)\n\n"
        (Tq_ir.Cfg.program_probe_count ci)
        (Tq_ir.Cfg.program_probe_count tq)
        bound;
      List.iter
        (fun (_, f) -> Format.printf "%a@." Tq_ir.Cfg.pp_func f)
        tq.Tq_ir.Cfg.funcs

let probe_place_cmd =
  let doc = "Instrument a benchmark program with the TQ pass and dump its CFG." in
  let prog_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"PROGRAM") in
  let bound =
    Arg.(value & opt int 400 & info [ "bound" ] ~doc:"max instructions between probes")
  in
  Cmd.v (Cmd.info "probe-place" ~doc) Term.(const probe_place $ prog_arg $ bound)

let () =
  let doc = "Tiny Quanta reproduction: experiments and tools" in
  let info = Cmd.info "tq_sim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd;
            run_cmd;
            all_cmd;
            sweep_cmd;
            trace_cmd;
            faults_cmd;
            adaptive_cmd;
            probe_place_cmd;
          ]))
