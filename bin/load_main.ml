(* tq_load: open-loop Poisson load generator for tq_serve.

   Offers a fixed request rate regardless of how fast the server
   answers, then reports achieved throughput and the per-class latency
   ladder, each request timed from its intended send time.  `--json
   FILE` writes the single-run benchmark report, with the generator's
   own lag; `--dashboard` renders SLO burn rates live; `--stats-interval SEC`
   polls the server's Stats RPC.  A span trace for Perfetto comes from
   the server itself: `tq_serve --trace-out FILE` writes it on exit. *)

open Cmdliner

let parse_slo s =
  (* NAME:LATENCY_US:GOODPUT, e.g. p99:500:0.99 *)
  match
    Scanf.sscanf_opt s "%[^:]:%f:%f" (fun name lat_us goodput ->
        { Tq_obs.Slo.name; latency_ns = int_of_float (lat_us *. 1e3); goodput })
  with
  | Some o -> o
  | None ->
      Printf.eprintf "bad --slo %S (expected NAME:LATENCY_US:GOODPUT)\n" s;
      exit 1

let run host port rate connections warmup measure grace seed mix_spec spin_us
    heavy_frac heavy_spin_us json_out quiet slo_specs slo_strict stats_interval dashboard stats_json
    breakdown breakdown_json control outliers_n =
  let mix =
    match mix_spec with
    | None -> Tq_serve.Load_gen.default_mix
    | Some s -> (
        match Scanf.sscanf_opt s "%f,%f,%f" (fun a b c -> (a, b, c)) with
        | Some (echo, kv, tpcc) ->
            { Tq_serve.Load_gen.default_mix with echo; kv; tpcc }
        | None ->
            Printf.eprintf "bad --mix %S (expected ECHO,KV,TPCC weights)\n" s;
            exit 1)
  in
  let mix =
    {
      mix with
      Tq_serve.Load_gen.echo_spin_ns = Tq_util.Time_unit.us spin_us;
      echo_heavy = heavy_frac;
      echo_heavy_spin_ns = Tq_util.Time_unit.us heavy_spin_us;
    }
  in
  let stats_interval =
    (* --stats-json needs at least one poll even when no interval was
       asked for; poll once a second then. *)
    match (stats_interval, stats_json) with
    | None, Some _ -> Some 1.0
    | si, _ -> si
  in
  let config =
    {
      Tq_serve.Load_gen.host;
      port;
      connections;
      rate_rps = rate;
      warmup_s = warmup;
      measure_s = measure;
      grace_s = grace;
      seed = Int64.of_int seed;
      mix;
      slo = List.map parse_slo slo_specs;
      stats_interval_s = stats_interval;
      dashboard;
    }
  in
  Option.iter
    (fun msg ->
      Printf.eprintf "tq_load: %s\n" msg;
      exit 1)
    (Tq_serve.Load_gen.config_error config);
  let r = Tq_serve.Load_gen.run config in
  if not quiet then begin
    Printf.printf
      "tq_load: offered %.0f rps for %gs -> achieved %.0f rps (%d ok, %d shed, %d \
       errors, %d outstanding)\n"
      rate measure r.throughput_rps r.ok r.shed r.errors r.outstanding;
    Printf.printf "tq_load: generator lag p99 %.1f us, max %.1f us\n" r.lag_p99_us
      r.lag_max_us;
    print_string (Tq_obs.Latency.dump r.latency);
    List.iter
      (fun (rep : Tq_obs.Slo.report) ->
        Printf.printf
          "slo %-10s target p(lat<=%.0fus) >= %.3f   compliance %.4f   burn %.2fx%s\n"
          rep.objective.name
          (float_of_int rep.objective.latency_ns /. 1e3)
          rep.objective.goodput rep.compliance rep.burn_rate
          (if rep.window_total > 0 && rep.burn_rate > 1.0 then "  BREACH" else ""))
      r.slo_reports;
    if stats_interval <> None then
      Printf.printf "tq_load: %d stats polls collected\n" (List.length r.stats_polls)
  end;
  (* Post-run views, fetched after the run so the server's reservoirs
     and span buffers cover the measurement window, all over one
     connection.  A view that fails is reported and the run still
     writes every view that succeeded; the exit status says so last. *)
  let failed = ref [] in
  let conn = lazy (Tq_serve.Client.connect ~host ~port ()) in
  let fetch what view =
    match Tq_serve.Client.stats ~view (Lazy.force conn) with
    | body -> Some body
    | exception e ->
        Printf.eprintf "tq_load: %s fetch failed: %s\n" what (Printexc.to_string e);
        failed := what :: !failed;
        None
  in
  let write_file path body =
    let oc = open_out path in
    output_string oc body;
    close_out oc
  in
  (* Tail forensics: the text view prints, the JSON view embeds in the
     --json report (server needs --tail-k). *)
  let outlier_json =
    match outliers_n with
    | None -> None
    | Some n ->
        Option.bind
          (fetch "outliers" (Tq_serve.Protocol.Stats_outliers_text { limit = n }))
          (fun text ->
            print_string text;
            fetch "outliers" (Tq_serve.Protocol.Stats_outliers { limit = n }))
  in
  (match json_out with
  | Some path ->
      write_file path (Tq_serve.Load_gen.to_json ?outliers:outlier_json config r);
      if not quiet then Printf.printf "tq_load: wrote %s\n" path
  | None -> ());
  (match stats_json with
  | Some path -> (
      match List.rev r.stats_polls with
      | (_, body) :: _ ->
          write_file path body;
          if not quiet then Printf.printf "tq_load: wrote server stats to %s\n" path
      | [] -> Printf.eprintf "tq_load: no stats polls succeeded, %s not written\n" path)
  | None -> ());
  (* Per-stage sojourn decomposition of every completed request. *)
  if breakdown then
    Option.iter print_string (fetch "breakdown" Tq_serve.Protocol.Stats_breakdown_text);
  Option.iter
    (fun path ->
      Option.iter
        (fun body ->
          write_file path body;
          if not quiet then Printf.printf "tq_load: wrote stage breakdown to %s\n" path)
        (fetch "breakdown-json" Tq_serve.Protocol.Stats_breakdown))
    breakdown_json;
  (* The controller's own view of the run: what the server's feedback
     loop did while we were loading it (needs tq_serve --adaptive). *)
  if control then
    Option.iter
      (Printf.printf "tq_load: controller state: %s\n")
      (fetch "control" Tq_serve.Protocol.Stats_control);
  if Lazy.is_val conn then Tq_serve.Client.close (Lazy.force conn);
  if r.received = 0 then begin
    Printf.eprintf "tq_load: no responses received\n";
    exit 1
  end;
  (* --slo-strict turns a monitored breach into a CI-visible failure:
     any SLO whose window burned through its error budget fails the run. *)
  if slo_strict then begin
    let breached =
      List.filter
        (fun (rep : Tq_obs.Slo.report) -> rep.window_total > 0 && rep.burn_rate > 1.0)
        r.slo_reports
    in
    if breached <> [] then begin
      List.iter
        (fun (rep : Tq_obs.Slo.report) ->
          Printf.eprintf "tq_load: SLO %s breached (burn %.2fx over %d samples)\n"
            rep.objective.name rep.burn_rate rep.window_total)
        breached;
      exit 3
    end
  end;
  if !failed <> [] then begin
    Printf.eprintf "tq_load: %d post-run view(s) failed: %s\n" (List.length !failed)
      (String.concat ", " (List.rev !failed));
    exit 4
  end

let () =
  let host = Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR" ~doc:"server address") in
  let port = Arg.(value & opt int 7770 & info [ "p"; "port" ] ~docv:"PORT" ~doc:"server port") in
  let rate =
    Arg.(value & opt float 50_000.0
         & info [ "r"; "rate" ] ~docv:"RPS" ~doc:"offered request rate (Poisson)")
  in
  let connections =
    Arg.(value & opt int 8 & info [ "c"; "connections" ] ~docv:"N" ~doc:"pipelined connections")
  in
  let warmup = Arg.(value & opt float 0.5 & info [ "warmup-s" ] ~doc:"warmup window (not recorded)") in
  let measure = Arg.(value & opt float 2.0 & info [ "d"; "duration-s" ] ~doc:"measurement window") in
  let grace = Arg.(value & opt float 2.0 & info [ "grace-s" ] ~doc:"post-window drain wait") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed") in
  let mix =
    Arg.(value & opt (some string) None
         & info [ "mix" ] ~docv:"E,K,T" ~doc:"echo,kv,tpcc weights (default 0.70,0.25,0.05)")
  in
  let spin =
    Arg.(value & opt float 1.0 & info [ "spin-us" ] ~doc:"server-side spin per echo request")
  in
  let heavy_frac =
    Arg.(value & opt float 0.0
         & info [ "heavy-frac" ]
             ~doc:"extra mix weight of heavy echo requests (skewed offered load)")
  in
  let heavy_spin =
    Arg.(value & opt float 0.0
         & info [ "heavy-spin-us" ] ~doc:"server-side spin per heavy echo request")
  in
  let json =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE" ~doc:"write the benchmark report to FILE")
  in
  let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"suppress the human-readable report") in
  let slo =
    Arg.(value & opt_all string []
         & info [ "slo" ] ~docv:"NAME:LAT_US:GOODPUT"
             ~doc:"latency SLO to monitor (repeatable), e.g. p99:500:0.99; \
                   default default:1000:0.99")
  in
  let slo_strict =
    Arg.(value & flag
         & info [ "slo-strict" ]
             ~doc:"exit 3 when any monitored --slo target burns through its \
                   error budget (burn rate > 1x) over the measurement window; \
                   turns SLO monitoring into a pass/fail gate for CI")
  in
  let stats_interval =
    Arg.(value & opt (some float) None
         & info [ "stats-interval" ] ~docv:"SEC"
             ~doc:"poll the server's Stats RPC every SEC seconds")
  in
  let dashboard =
    Arg.(value & flag
         & info [ "dashboard" ]
             ~doc:"live ANSI dashboard on stderr: SLO burn rate, goodput window, \
                   achieved throughput")
  in
  let stats_json =
    Arg.(value & opt (some string) None
         & info [ "stats-json" ] ~docv:"FILE"
             ~doc:"write the last polled server stats snapshot to FILE")
  in
  let breakdown =
    Arg.(value & flag
         & info [ "breakdown" ]
             ~doc:"after the run, fetch the server's per-stage sojourn \
                   decomposition (parse/dispatch/ring-hop/first-run-wait/\
                   service/preempt/reply-flush) of every completed request \
                   and print the table")
  in
  let breakdown_json =
    Arg.(value & opt (some string) None
         & info [ "breakdown-json" ] ~docv:"FILE"
             ~doc:"write the per-stage decomposition as JSON \
                   (BENCH_breakdown.json shape) to FILE")
  in
  let control =
    Arg.(value & flag
         & info [ "control" ]
             ~doc:"after the run, fetch the server's live controller state \
                   (Stats RPC control view) and print it (server needs \
                   --adaptive)")
  in
  let outliers =
    Arg.(value & opt (some int) None
         & info [ "outliers" ] ~docv:"N"
             ~doc:"after the run, fetch the server's N slowest retained \
                   requests as forensic dossiers (0 = all retained): print \
                   the table and embed the JSON in the --json report (server \
                   needs --tail-k)")
  in
  let doc = "Open-loop Poisson load generator for tq_serve." in
  let exits =
    Cmd.Exit.info 1 ~doc:"on a bad flag, or when no response arrived."
    :: Cmd.Exit.info 3 ~doc:"when $(b,--slo-strict) finds an SLO breached."
    :: Cmd.Exit.info 4
         ~doc:"when a post-run view that was asked for ($(b,--outliers), \
               $(b,--breakdown), $(b,--breakdown-json), \
               $(b,--control)) could not be fetched; every view that was \
               fetched is still written first."
    :: Cmd.Exit.defaults
  in
  let cmd =
    Cmd.v (Cmd.info "tq_load" ~version:"1.3.0" ~doc ~exits)
      Term.(const run $ host $ port $ rate $ connections $ warmup $ measure $ grace
            $ seed $ mix $ spin $ heavy_frac $ heavy_spin $ json $ quiet $ slo $ slo_strict
            $ stats_interval $ dashboard $ stats_json $ breakdown
            $ breakdown_json $ control $ outliers)
  in
  exit (Cmd.eval cmd)
