(* tq_serve: the live multicore RPC server.

   Binds a TCP port, spawns worker domains, and runs the two-level
   dispatch loop until SIGINT/SIGTERM (or --duration-s) triggers a
   graceful drain.  Point tq_load at it. *)

open Cmdliner

let serve host port cores lanes quantum_us ring rx_depth admission kv_keys pool_bufs
    pool_buf_bytes duration_s stats_out obs obs_capacity trace_out gc_events
    adaptive ctl_latency_us ctl_interval_ms heartbeat_ms missed_heartbeats faults
    tail_k tail_threshold_us tail_window_ms tail_trace_out metrics_port =
  let admission =
    match admission with
    | "accept-all" -> Tq_sched.Admission.Accept_all
    | s -> (
        match Scanf.sscanf_opt s "queue-limit:%d" (fun n -> n) with
        | Some n -> Tq_sched.Admission.Queue_limit { max_in_system = n }
        | None -> (
            match Scanf.sscanf_opt s "ewma:%d" (fun n -> n) with
            | Some threshold_us ->
                Tq_sched.Admission.Ewma_sojourn
                  { threshold_ns = threshold_us * 1000; alpha = 0.05 }
            | None ->
                Printf.eprintf
                  "unknown admission policy %s (try: accept-all, queue-limit:N, ewma:USEC)\n"
                  s;
                exit 1))
  in
  let quantum_ns = Tq_util.Time_unit.us quantum_us in
  (* The controller's knob ranges anchor on the operator's static
     choices: quanta may shrink well below the configured quantum (more
     interleaving under pressure) but not above 2x it; the shed limit
     lives under the rx_depth hard gate. *)
  let controller =
    if not adaptive then None
    else
      Some
        {
          (Tq_control.Controller.default_config ~quantum_initial_ns:quantum_ns
             ~shed_initial:(min rx_depth (32 * cores)))
          with
          Tq_control.Controller.interval_ns =
            int_of_float (ctl_interval_ms *. 1e6);
          objective =
            {
              Tq_obs.Slo.name = "serve";
              latency_ns = int_of_float (ctl_latency_us *. 1e3);
              goodput = 0.99;
            };
          quantum_min_ns = max 1_000 (quantum_ns / 32);
          quantum_max_ns = 2 * quantum_ns;
          shed_min = cores;
          shed_max = rx_depth;
        }
  in
  let fault_events =
    match faults with
    | None -> []
    | Some spec -> (
        match Tq_fault.Live.parse spec with
        | Ok evs -> evs
        | Error msg ->
            Printf.eprintf "tq_serve: %s\n" msg;
            exit 1)
  in
  let config =
    {
      Tq_serve.Server.default_config with
      host;
      port;
      workers = cores;
      quantum_ns;
      ring_capacity = ring;
      rx_depth;
      admission;
      kv_keys;
      adaptive = controller;
      heartbeat_interval_s = heartbeat_ms /. 1e3;
      missed_heartbeats;
      pool_bufs;
      pool_buf_bytes;
    }
  in
  (* Bad flags fail here, before anything is bound, built or spawned. *)
  let reject msg =
    Printf.eprintf "tq_serve: %s\n" msg;
    exit 1
  in
  if lanes <> 1 then
    reject (Printf.sprintf "--lanes must be 1: the server runs one dispatcher (got %d)" lanes);
  Option.iter reject (Tq_serve.Server.config_error config);
  if obs_capacity < 1 then
    reject (Printf.sprintf "--obs-capacity must be positive (got %d)" obs_capacity);
  let tail_on = tail_k > 0 || tail_trace_out <> None in
  let spans =
    (* The outlier-only trace is cut from the span buffers, so it pulls
       spans in; dossiers and the breakdown need none. *)
    if obs || trace_out <> None || tail_trace_out <> None then
      Tq_obs.Span.create ~capacity_per_sink:obs_capacity ()
    else Tq_obs.Span.null
  in
  let tail =
    if tail_on then
      Tq_obs.Tail.create
        ~k:(if tail_k > 0 then tail_k else 16)
        ~threshold_ns:(int_of_float (tail_threshold_us *. 1e3))
        ~window_ns:(int_of_float (tail_window_ms *. 1e6))
        ()
    else Tq_obs.Tail.null
  in
  (* GC telemetry rides along whenever observability is on (spans get a
     gc track, stalls get attributed); --no-gc-events opts out. *)
  let gc =
    if gc_events && (obs || trace_out <> None) then
      Some (Tq_obs.Gc_events.start ~spans ())
    else None
  in
  let server = Tq_serve.Server.create ~spans ~tail ?gc config in
  let metrics_plane =
    match metrics_port with
    | None -> None
    | Some mp ->
        let h = Tq_serve.Http_expo.start ~host ~port:mp server in
        Printf.printf
          "tq_serve: metrics on http://%s:%d/metrics (/outliers, /healthz)\n%!"
          host
          (Tq_serve.Http_expo.port h);
        Some h
  in
  (if fault_events <> [] then begin
     let live = Tq_fault.Live.create fault_events in
     let actions =
       {
         Tq_fault.Live.stall =
           (fun ~worker ~duration_ns ->
             Printf.eprintf "tq_serve: FAULT stall w%d %.1fms\n%!" worker
               (float_of_int duration_ns /. 1e6);
             Tq_serve.Server.inject_stall server ~worker ~duration_ns);
         kill =
           (fun ~worker ->
             Printf.eprintf "tq_serve: FAULT kill w%d\n%!" worker;
             Tq_serve.Server.kill_worker server ~worker);
         pause =
           (fun ~duration_ns ->
             Printf.eprintf "tq_serve: FAULT dispatcher pause %.1fms\n%!"
               (float_of_int duration_ns /. 1e6);
             Tq_serve.Server.pause_dispatcher server ~duration_ns);
       }
     in
     Tq_serve.Server.on_tick server (fun ~now_ns ->
         ignore (Tq_fault.Live.poll live ~now_ns actions : int))
   end);
  let stop _ = Tq_serve.Server.stop server in
  ignore (Sys.signal Sys.sigint (Sys.Signal_handle stop));
  ignore (Sys.signal Sys.sigterm (Sys.Signal_handle stop));
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore) with Invalid_argument _ -> ());
  (match duration_s with
  | Some s ->
      ignore (Sys.signal Sys.sigalrm (Sys.Signal_handle stop));
      ignore (Unix.alarm (max 1 (int_of_float (Float.ceil s))))
  | None -> ());
  Printf.printf "tq_serve: listening on %s:%d (%d worker cores, %gus quanta)\n%!" host
    (Tq_serve.Server.port server)
    cores quantum_us;
  Tq_serve.Server.serve server;
  (* the lane has returned: the snapshot is exact *)
  let s = Tq_serve.Server.stats server in
  let summary = Tq_serve.Server.snapshot_json server in
  Printf.printf "tq_serve: drained. %s%!" summary;
  (match stats_out with
  | Some path ->
      let oc = open_out path in
      output_string oc summary;
      close_out oc
  | None -> ());
  Option.iter Tq_serve.Http_expo.stop metrics_plane;
  (* Stop the GC consumer before the trace is written so the last
     pauses make the gc track. *)
  Option.iter Tq_obs.Gc_events.stop gc;
  (match trace_out with
  | Some path ->
      Tq_obs.Span.write_file ~process:"tq_serve" spans path;
      Printf.printf "tq_serve: wrote span trace to %s (%d spans, %d dropped)\n%!" path
        (Tq_obs.Span.total spans) (Tq_obs.Span.dropped spans)
  | None -> ());
  (match tail_trace_out with
  | Some path ->
      let oc = open_out path in
      output_string oc (Tq_serve.Server.tail_trace server);
      close_out oc;
      Printf.printf
        "tq_serve: wrote outlier-only trace to %s (%d retained of %d offered)\n%!"
        path
        (Tq_obs.Tail.retained tail)
        (Tq_obs.Tail.offered tail)
  | None -> ());
  (* the drain invariants: the ledger balances and everything admitted
     was answered *)
  let faults =
    Tq_serve.Server.ledger_violations s
    @
    if s.dispatched <> s.completed then
      [
        Printf.sprintf "LOST %d admitted requests (%d lost, %d in flight)"
          (s.dispatched - s.completed) s.lost s.in_flight;
      ]
    else []
  in
  if faults <> [] then begin
    List.iter (Printf.eprintf "tq_serve: %s\n") faults;
    exit 1
  end

let () =
  let host =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR" ~doc:"bind address")
  in
  let port =
    Arg.(value & opt int 7770 & info [ "p"; "port" ] ~docv:"PORT" ~doc:"TCP port (0 = ephemeral)")
  in
  let cores =
    Arg.(value & opt int 4 & info [ "cores" ] ~docv:"N" ~doc:"worker domains (level 2 cores)")
  in
  let lanes =
    Arg.(value & opt int 1
         & info [ "lanes" ] ~docv:"N"
             ~doc:"kept so older command lines still parse: the server runs one \
                   dispatcher, so only 1 is accepted")
  in
  let pool_bufs =
    Arg.(value & opt int 1024
         & info [ "pool-bufs" ] ~docv:"N"
             ~doc:"reply framing buffers kept on the shared zero-copy pool")
  in
  let pool_buf_bytes =
    Arg.(value & opt int 4096
         & info [ "pool-buf-bytes" ] ~docv:"BYTES"
             ~doc:"size of each pooled framing buffer (larger responses fall back \
                   to exact fresh allocations)")
  in
  let quantum =
    Arg.(value & opt float 100.0 & info [ "quantum-us" ] ~doc:"forced-multitasking quantum")
  in
  let ring =
    Arg.(value & opt int 256 & info [ "ring" ] ~docv:"N" ~doc:"dispatcher->worker ring capacity")
  in
  let rx_depth =
    Arg.(value & opt int 1024
         & info [ "rx-depth" ] ~docv:"N"
             ~doc:"shed when pool-wide in-flight requests reach N (RX-ring admission)")
  in
  let admission =
    Arg.(value & opt string "accept-all"
         & info [ "admission" ] ~docv:"POLICY"
             ~doc:"extra admission gate: accept-all | queue-limit:N | ewma:USEC")
  in
  let kv_keys =
    Arg.(value & opt int 1024 & info [ "kv-keys" ] ~docv:"N" ~doc:"prepopulated keys per worker store")
  in
  let duration =
    Arg.(value & opt (some float) None
         & info [ "duration-s" ] ~docv:"SEC" ~doc:"drain and exit after SEC seconds (default: run until SIGINT/SIGTERM)")
  in
  let stats_out =
    Arg.(value & opt (some string) None
         & info [ "stats-out" ] ~docv:"FILE" ~doc:"also write the final accounting JSON to FILE")
  in
  let obs =
    Arg.(value & flag
         & info [ "obs" ]
             ~doc:"enable cross-domain request spans (dispatch/quantum/stall \
                   timelines; the stats snapshot counts them, --trace-out \
                   writes them)")
  in
  let obs_capacity =
    Arg.(value & opt int 16_384
         & info [ "obs-capacity" ] ~docv:"N"
             ~doc:"span-buffer capacity per domain (oldest overwritten)")
  in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
             ~doc:"write the merged span trace as Chrome/Perfetto JSON on exit \
                   (implies --obs)")
  in
  let gc_events =
    Arg.(value & opt bool true
         & info [ "gc-events" ] ~docv:"BOOL"
             ~doc:"with --obs/--trace-out, consume OCaml Runtime_events: GC pause \
                   spans on per-domain gc tracks, gc.* counters, and stall \
                   attribution (runtime.stall_gc vs stall_other); default true")
  in
  let adaptive =
    Arg.(value & flag
         & info [ "adaptive" ]
             ~doc:"close the loop: a feedback controller samples burn rate and \
                   backlog from the dispatcher loop and retunes per-class quanta \
                   and the admission shed limit live (control.* counters, \
                   stats-RPC control view)")
  in
  let ctl_latency_us =
    Arg.(value & opt float 1000.0
         & info [ "ctl-latency-us" ] ~docv:"USEC"
             ~doc:"with --adaptive: the latency objective the controller holds \
                   (completions above it burn error budget)")
  in
  let ctl_interval_ms =
    Arg.(value & opt float 10.0
         & info [ "ctl-interval-ms" ] ~docv:"MS"
             ~doc:"with --adaptive: controller sampling period")
  in
  let heartbeat_ms =
    Arg.(value & opt float 50.0
         & info [ "heartbeat-ms" ] ~docv:"MS"
             ~doc:"worker liveness sampling period (0 disables the monitor)")
  in
  let missed_heartbeats =
    Arg.(value & opt int 4
         & info [ "missed-heartbeats" ] ~docv:"N"
             ~doc:"no-progress windows before a worker holding work is declared \
                   dead and its requests are re-dispatched")
  in
  let faults =
    Arg.(value & opt (some string) None
         & info [ "faults" ] ~docv:"SPEC"
             ~doc:"live fault schedule, times in ms from serve start: \
                   stall@T:wN:D | kill@T:wN | pause@T:D, comma-separated \
                   (e.g. 'kill@500:w1,stall@800:w0:50')")
  in
  let tail_k =
    Arg.(value & opt int 0
         & info [ "tail-k" ] ~docv:"K"
             ~doc:"always-on tail forensics: retain the K slowest requests per \
                   window as queryable dossiers (stats-RPC outliers \
                   view, /outliers), each with its exact per-stage \
                   attribution; 0 disables (zero per-request cost)")
  in
  let tail_threshold_us =
    Arg.(value & opt float 0.0
         & info [ "tail-threshold-us" ] ~docv:"USEC"
             ~doc:"with --tail-k: additionally retain every request whose \
                   sojourn breaches USEC, even outside the top K (0 = off)")
  in
  let tail_window_ms =
    Arg.(value & opt float 1000.0
         & info [ "tail-window-ms" ] ~docv:"MS"
             ~doc:"with --tail-k: the sliding-window length; the reservoir keeps \
                   the current and previous window so a fresh window never \
                   forgets the recent tail")
  in
  let tail_trace_out =
    Arg.(value & opt (some string) None
         & info [ "tail-trace-out" ] ~docv:"FILE"
             ~doc:"write a Chrome/Perfetto trace of only the retained outlier \
                   requests on exit (records spans; implies --tail-k 16 if \
                   not set)")
  in
  let metrics_port =
    Arg.(value & opt (some int) None
         & info [ "metrics-port" ] ~docv:"PORT"
             ~doc:"serve a plain-HTTP metrics plane on PORT (0 = ephemeral): \
                   GET /metrics (Prometheus text exposition), /outliers \
                   (tail dossiers JSON), /healthz")
  in
  let doc = "Live multicore RPC server over the Tiny Quanta fiber runtime." in
  let cmd =
    Cmd.v (Cmd.info "tq_serve" ~version:"1.2.0" ~doc)
      Term.(const serve $ host $ port $ cores $ lanes $ quantum $ ring $ rx_depth
            $ admission $ kv_keys $ pool_bufs $ pool_buf_bytes $ duration $ stats_out
            $ obs $ obs_capacity $ trace_out $ gc_events $ adaptive $ ctl_latency_us
            $ ctl_interval_ms $ heartbeat_ms $ missed_heartbeats $ faults
            $ tail_k $ tail_threshold_us $ tail_window_ms $ tail_trace_out
            $ metrics_port)
  in
  exit (Cmd.eval cmd)
