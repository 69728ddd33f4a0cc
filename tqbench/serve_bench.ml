(* The serve_light workload: tq_serve --cores 1 --lanes 1 as its own
   process, loaded over loopback by this process.

   Untraced run (end-to-end metrics): the server is spawned five times,
   or more when the host stalled some (see [max_spawns]), each spawn
   timed to its first Ok echo (set-up) and then given an equal share of
   the load.  Traced run (per-layer metrics): one untraced and one --obs
   pass of equal length, then the server's stage breakdown and stats
   snapshot over the Stats RPC. *)

open Common
module Protocol = Tq_serve.Protocol

type spec = { rate_rps : float; mix : Load.mix }

(* The rate is calibrated on a shared 2-core host so that no request is
   shed: with tq_serve's default 256-deep worker ring, a
   multi-millisecond OS stall of the worker sheds now and then at 10k rps. *)
let spec_of_name = function
  | "serve_light" -> Some { rate_rps = 8_000.0; mix = Load.default_mix }
  | _ -> None

let connections = 2
let window_s = Load.window_s
let warmup_s = 1.0
let grace_s = 5.0

(* A pass whose generator fell this far behind its schedule measured the
   generator, not the server: it is invalid and counts for nothing. *)
let lag_p99_bound_us = 5_000.0
let lag_max_bound_us = 200_000.0

let setup_spawns = 5

(* Spawns beyond [setup_spawns] make up for invalid slices, up to this
   many in all. *)
let max_spawns = 2 * setup_spawns

(* Set-up time is a few milliseconds and spreads widely from spawn to
   spawn, so before each loaded spawn this many servers are spawned
   that only answer their set-up echo and drain. *)
let bare_spawns = 4

let stats_file () = Filename.temp_file ~temp_dir:(Sys.getcwd ()) "tqbench-drain" ".json"

(* One server process from spawn to checked drain.  [work] runs against
   the live server and returns how many requests it sent with its
   result; the set-up echoes are counted on top.  Also returns how many
   workers the server declared dead. *)
let with_server ~exe ~extra work =
  let stats_out = stats_file () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove stats_out with Sys_error _ -> ())
    (fun () ->
      let srv = Server_proc.spawn ~exe ~stats_out extra in
      let setup_s, probes = Server_proc.first_echo srv in
      let sent, result = work srv in
      let summary = Server_proc.stop srv in
      Server_proc.check_summary summary ~sent:(probes + sent);
      (setup_s, int_of_float (path_number summary "dead_workers"), result))

let check_result (r : Load.result) =
  check (r.unanswered = 0) "%d requests never answered" r.unanswered;
  check (r.measured_sent > 0) "no request fell inside the measurement window";
  check (r.kv_verified > 0) "no GET-after-SET was verified"

let p us = percentile us
let lag (r : Load.result) q = p r.lag_us q

(* The host deschedules the generator now and then for tens of
   milliseconds: a slice or pass over the lag bounds measured the
   generator, not the server.  Rarely it deschedules the server's only
   worker for so long (four 50 ms heartbeats without progress while it
   holds work) that the lane declares it dead and sheds every later
   request: that spawn measured the stall.  An untraced run leaves
   such slices and spawns out of its medians and makes them up with
   more spawns.  A traced pass, whose per-layer figures cover the whole
   pass, is invalid when most of its slices are; it is run again on a
   fresh server with the same inputs, up to [pass_attempts] times.

   The host's busy stretches last minutes, so now and then every
   attempt is invalid.  Then the run reports what it measured anyway,
   marked [host_valid = false] in its record: the end-to-end metrics
   (goodput, set-up, memory) barely follow the lag, and failing the
   run would stop the benchmark on the host, not on the program. *)
let pass_attempts = 5

let slice_lag_ok w = w.Load.w_lag_p99_us <= lag_p99_bound_us

let lag_error (r : Load.result) =
  let slices = Array.length r.windows in
  let over = Array.fold_left (fun n w -> if slice_lag_ok w then n else n + 1) 0 r.windows in
  if 2 * over > slices then
    Some
      (Printf.sprintf "generator lag p99 over the %.0f us bound in %d of %d slices"
         lag_p99_bound_us over slices)
  else if lag r 100.0 > lag_max_bound_us then
    Some
      (Printf.sprintf "generator lag max %.0f us over the %.0f us bound" (lag r 100.0)
         lag_max_bound_us)
  else None

let dead_error dead =
  if dead > 0 then Some (Printf.sprintf "%d worker declared dead" dead) else None

(* A traced pass keeps every span and attributes every request exactly. *)
let obs_error ~breakdown ~stats =
  let dropped = path_number stats "spans.dropped" in
  let exact = path_number breakdown "exact_fraction" in
  if dropped <> 0.0 then Some (Printf.sprintf "the traced server dropped %.0f spans" dropped)
  else if exact <> 1.0 then Some (Printf.sprintf "stage attribution inexact: exact_fraction %g" exact)
  else None

(* The first valid pass, with the number of invalid ones before it
   ([pass_attempts] when the last attempt stands, invalid only because
   of the host).  [host] lists the host's errors, [own] any other. *)
let valid_pass ~host ~own pass =
  let rec go invalid =
    let x = pass () in
    match (List.find_map Fun.id (own x), List.find_map Fun.id (host x)) with
    | None, None -> (x, invalid)
    | _ when invalid + 1 < pass_attempts -> go (invalid + 1)
    | Some e, _ -> raise (Check_failed (Printf.sprintf "%s, %d passes in a row" e pass_attempts))
    | None, Some _ -> (x, pass_attempts)
  in
  go 0

let valid_slices ~dead (r : Load.result) =
  if dead > 0 then []
  else List.filter slice_lag_ok (Array.to_list r.windows)

let slice_p50_us w = p w.Load.w_latency_us 50.0

let slice_slo_frac w =
  let slo_us = float_of_int Load.slo_ns /. 1e3 in
  let within = Array.fold_left (fun n x -> if x <= slo_us then n + 1 else n) 0 w.Load.w_latency_us in
  float_of_int within /. float_of_int w.w_sent

(* Goodput is the median over the valid one-second slices
   (Load.window_s) of all spawns.  The response times are not end-to-end
   metrics: they follow the host's other tenants (see README.md), so
   the run record keeps every valid slice's figures instead. *)
let end_to_end ~setups ~rss windows =
  [
    ( "throughput_rps",
      median (List.map (fun w -> float_of_int w.Load.w_ok_recv /. Load.window_s) windows) );
    ("setup_s", median setups);
    ("peak_rss_mb", median rss);
  ]

(* The same figures over the whole window, kept in the run record. *)
let whole_run ~seconds (r : Load.result) =
  [
    ("whole_p50_us", num (p r.latency_us 50.0));
    ("whole_p99_us", num (p r.latency_us 99.0));
    ("whole_short_p99_us", num (p r.class_latency_us.(Load.k_short) 99.0));
    ("whole_slo_frac", num (float_of_int r.slo_ok /. float_of_int r.measured_sent));
    ("whole_throughput_rps", num (float_of_int r.ok_in_window /. seconds));
  ]

(* Span-buffer capacity per server domain, sized so a traced pass
   overwrites nothing: about five spans per request on the lane. *)
let obs_capacity spec ~seconds = 8 * int_of_float (spec.rate_rps *. (warmup_s +. seconds +. 1.0))

let layer_metrics ~breakdown ~stats ~untraced ~(traced : Load.result) =
  let stage s f = path_number breakdown (Printf.sprintf "stages.%s.%s" s f) in
  let stat k = path_number stats k in
  let completed = Float.max 1.0 (stat "runtime.completions") in
  let per_kreq k = stat k *. 1000.0 /. completed in
  let hits = stat "io_plane.pool.hits" and misses = stat "io_plane.pool.misses" in
  let class_p50 k = p traced.class_latency_us.(Load.class_of_kind k) 50.0 in
  [
    ("gen.lag_p99_us", lag traced 99.0);
    ("gen.lag_max_us", lag traced 100.0);
    ("protocol.encode_ns", traced.encode_ns);
    ("protocol.decode_ns", traced.decode_ns);
    ("lane.parse_us.mean", stage "parse" "mean_us");
    ("lane.dispatch_us.mean", stage "dispatch" "mean_us");
    ("lane.reply_flush_us.mean", stage "reply_flush" "mean_us");
    ("lane.reply_flush_us.p99", stage "reply_flush" "p99_us");
    ("lane.reply_flush_share", stage "reply_flush" "share");
    ("lane.shed_frac", stat "shed" /. Float.max 1.0 (stat "parsed"));
    ("lane.pool_miss_frac", misses /. Float.max 1.0 (hits +. misses));
    ("runtime.ring_hop_us.mean", stage "ring_hop" "mean_us");
    ("runtime.ring_hop_us.p99", stage "ring_hop" "p99_us");
    ("runtime.ring_hop_share", stage "ring_hop" "share");
    ("runtime.first_run_wait_us.mean", stage "first_run_wait" "mean_us");
    ("runtime.first_run_wait_us.p99", stage "first_run_wait" "p99_us");
    ("runtime.service_us.mean", stage "service" "mean_us");
    ("runtime.preempt_overhead_us.mean", stage "preempt_overhead" "mean_us");
    ("runtime.quanta_per_req", stat "runtime.quanta" /. completed);
    ("runtime.yields_per_req", stat "runtime.yields" /. completed);
    ("runtime.stalls_per_kreq", per_kreq "runtime.stalls");
    ("runtime.stall_gc_per_kreq", per_kreq "gc.stall_gc");
    ("runtime.stall_other_per_kreq", per_kreq "gc.stall_other");
    ("gc.minor_pauses_per_kreq", per_kreq "gc.minor_pauses");
    ("gc.major_pauses_per_kreq", per_kreq "gc.major_pauses");
    ("class.echo.p50_us", class_p50 Load.k_short);
    ("class.kv_get.p50_us", class_p50 Load.k_get);
    ("class.kv_set.p50_us", class_p50 Load.k_set);
    ("class.tpcc.p50_us", class_p50 Load.k_tpcc);
    ("obs.span_dropped", stat "spans.dropped");
    ("obs.exact_frac", path_number breakdown "exact_fraction");
    ("obs.trace_overhead_frac", (p traced.latency_us 50.0 /. p untraced.Load.latency_us 50.0) -. 1.0);
    ("fail_frac", float_of_int traced.measured_failed /. float_of_int traced.measured_sent);
    ("p50_us", p untraced.latency_us 50.0);
    ("slo_frac", float_of_int untraced.slo_ok /. float_of_int untraced.measured_sent);
    ("p99_us", p untraced.latency_us 99.0);
    ("short_p99_us", p untraced.class_latency_us.(Load.k_short) 99.0);
  ]

let run spec ~server ~seed ~seconds ~trace ~spans_out =
  let load ?(seed = seed) ~seconds ~timed (srv : Server_proc.t) =
    let r =
      Load.run
        {
          Load.port = srv.port;
          connections;
          rate_rps = spec.rate_rps;
          mix = spec.mix;
          warmup_s;
          measure_s = seconds;
          grace_s;
          seed;
          timed;
        }
    in
    check_result r;
    r
  in
  let info extra =
    [
      ("offered_rps", num spec.rate_rps);
      ("connections", int connections);
      ("warmup_s", num warmup_s);
      ("measure_s", num seconds);
      ("server_args", str "--cores 1 --lanes 1 --port 0");
    ]
    @ extra
  in
  let failed (r : Load.result) = r.shed + r.unanswered in
  if not trace then begin
    (* Each spawn takes an equal share of the load: how a server's lane
       and worker land on the host's cores varies from spawn to spawn,
       and so does its tail, so the run pools the slices of several.
       Spawns are added while fewer than half the planned slices are
       valid. *)
    let share = Float.max window_s (seconds /. float_of_int setup_spawns) in
    let planned = setup_spawns * max 1 (int_of_float (share /. window_s)) in
    let slowdowns = ref [] in
    let spawn i =
      slowdowns := List.init 3 (fun _ -> host_slowdown ()) @ !slowdowns;
      let bare =
        List.init bare_spawns (fun _ ->
            let setup, _, () = with_server ~exe:server ~extra:[] (fun _ -> (0, ())) in
            setup)
      in
      let setup, dead, (r, rss) =
        with_server ~exe:server ~extra:[] (fun srv ->
            let r = load ~seed:((seed * max_spawns) + i) ~seconds:share ~timed:false srv in
            (r.sent, (r, peak_rss_mb (string_of_int srv.pid))))
      in
      (setup :: bare, dead, r, rss, valid_slices ~dead r)
    in
    let rec more spawns n_valid =
      let i = List.length spawns in
      if i >= setup_spawns && (2 * n_valid >= planned || i >= max_spawns) then List.rev spawns
      else
        let ((_, _, _, _, valid) as s) = spawn i in
        more (s :: spawns) (n_valid + List.length valid)
    in
    let spawns = more [] 0 in
    let valid = List.concat_map (fun (_, _, _, _, valid) -> valid) spawns in
    (* fewer than a quarter valid: the host stayed busy (see [pass_attempts]) *)
    let host_valid = 4 * List.length valid >= planned in
    let windows =
      if host_valid then valid
      else List.concat_map (fun (_, _, r, _, _) -> Array.to_list r.Load.windows) spawns
    in
    (* Set-up is mostly the server's start: exec, page faults and static
       initialisation on one thread, which follow the host's CPU speed.
       So it is divided by the run's median slowdown.  The response
       times ride three threads on two cores and do not follow it. *)
    let slowdown = median !slowdowns in
    let setups = List.concat_map (fun (s, _, _, _, _) -> s) spawns in
    let results = List.map (fun (_, _, r, _, _) -> r) spawns in
    let rss = List.map (fun (_, _, _, mb, _) -> mb) spawns in
    let sum f = List.fold_left (fun acc r -> acc + f r) 0 results in
    let each f = Json.List (List.map f results) in
    ( sum (fun r -> r.Load.sent),
      sum failed,
      end_to_end ~setups:(List.map (fun s -> s /. slowdown) setups) ~rss windows,
      [],
      info
        [
          ("seconds_per_spawn", num share);
          ("spawns", int (List.length spawns));
          ("dead_workers_per_spawn", Json.List (List.map (fun (_, d, _, _, _) -> int d) spawns));
          ("host_valid", Json.Bool host_valid);
          ("valid_slices", int (List.length valid));
          ("valid_slice_p50_us", Json.List (List.map (fun w -> num (slice_p50_us w)) valid));
          ("valid_slice_slo_frac", Json.List (List.map (fun w -> num (slice_slo_frac w)) valid));
          ("planned_slices", int planned);
          ("slices", int (sum (fun r -> Array.length r.windows)));
          ("setup_samples_s", Json.List (List.map num setups));
          ("host_slowdown_median", num slowdown);
          ("peak_rss_mb_per_spawn", Json.List (List.map num rss));
          ("gen_lag_p99_us", each (fun r -> num (lag r 99.0)));
          ("gen_lag_max_us", each (fun r -> num (lag r 100.0)));
          ("kv_gets_verified", int (sum (fun r -> r.kv_verified)));
          ("measured_sent", int (sum (fun r -> r.measured_sent)));
          ("whole_run_per_spawn", each (fun r -> Json.Obj (whole_run ~seconds:share r)));
        ] )
  end
  else begin
    (* span buffers grow with the pass, so traced passes stay short *)
    let seconds = Float.min seconds 5.0 in
    let (_, _, untraced), invalid_untraced =
      valid_pass
        ~host:(fun (_, dead, r) -> [ lag_error r; dead_error dead ])
        ~own:(fun _ -> [])
        (fun () ->
          with_server ~exe:server ~extra:[] (fun srv ->
              let r = load ~seconds ~timed:false srv in
              (r.sent, r)))
    in
    let extra = [ "--obs"; "--obs-capacity"; string_of_int (obs_capacity spec ~seconds) ] in
    let (_, _, (traced, breakdown, stats)), invalid_traced =
      valid_pass
        ~host:(fun (_, dead, (r, _, _)) -> [ lag_error r; dead_error dead ])
        ~own:(fun (_, _, (_, breakdown, stats)) -> [ obs_error ~breakdown ~stats ])
        (fun () ->
          with_server ~exe:server ~extra (fun srv ->
              let r = load ~seconds ~timed:true srv in
              let view v =
                match Json.of_string (Server_proc.stats srv v) with
                | Ok j -> j
                | Error e -> failwith ("unreadable stats view: " ^ e)
              in
              (r.sent, (r, view Protocol.Stats_breakdown, view Protocol.Stats_json))))
    in
    let layers = layer_metrics ~breakdown ~stats ~untraced ~traced in
    Option.iter traced.write_spans spans_out;
    ( untraced.sent + traced.sent,
      failed untraced + failed traced,
      [],
      layers,
      info
        [
          ("traced_pass_s", num seconds);
          ("invalid_passes", int (invalid_untraced + invalid_traced));
          ( "host_valid",
            Json.Bool (invalid_untraced < pass_attempts && invalid_traced < pass_attempts) );
          ("gen_lag_p99_us", num (lag traced 99.0));
          ("kv_gets_verified", int traced.kv_verified);
        ] )
  end
