module Prng = Tq_util.Prng
module Time_unit = Tq_util.Time_unit
module Latency = Tq_obs.Latency
module Slo = Tq_obs.Slo
module Ascii_chart = Tq_util.Ascii_chart
module Transactions = Tq_tpcc.Transactions

type mix = {
  echo : float;
  kv : float;
  tpcc : float;
  echo_heavy : float;
  echo_spin_ns : int;
  echo_heavy_spin_ns : int;
  kv_set_fraction : float;
  kv_keys : int;
}

let default_mix =
  {
    echo = 0.70;
    kv = 0.25;
    tpcc = 0.05;
    echo_heavy = 0.0;
    echo_spin_ns = 1_000;
    echo_heavy_spin_ns = 0;
    kv_set_fraction = 0.3;
    kv_keys = 1024;
  }

type config = {
  host : string;
  port : int;
  connections : int;
  rate_rps : float;
  warmup_s : float;
  measure_s : float;
  grace_s : float;
  seed : int64;
  mix : mix;
  slo : Slo.objective list;
  stats_interval_s : float option;
  dashboard : bool;
}

let default_config ~rate_rps ~port =
  {
    host = "127.0.0.1";
    port;
    connections = 8;
    rate_rps;
    warmup_s = 0.5;
    measure_s = 2.0;
    grace_s = 2.0;
    seed = 42L;
    mix = default_mix;
    slo = [];
    stats_interval_s = None;
    dashboard = false;
  }

type result = {
  sent : int;
  received : int;
  ok : int;
  shed : int;
  errors : int;
  measured_sent : int;
  measured_ok : int;
  throughput_rps : float;
  latency : Latency.t;
  lag_p99_us : float;
  lag_max_us : float;
  outstanding : int;
  slo_reports : Slo.report list;
  stats_polls : (float * string) list;
}

type conn = {
  fd : Unix.file_descr;
  rb : Protocol.Reassembly.t;
  out : Protocol.Outbuf.t;
  scratch : Buffer.t;  (* one request frame at a time, blitted into [out] *)
}

let config_error c =
  let bad fmt = Printf.ksprintf Option.some fmt in
  let m = c.mix in
  (* Every float rule is written so that a NaN breaks it too. *)
  let bad_weight =
    List.find_opt
      (fun (_, w) -> not (w >= 0.0 && Float.is_finite w))
      [ ("echo", m.echo); ("kv", m.kv); ("tpcc", m.tpcc); ("echo_heavy", m.echo_heavy) ]
  in
  if not (c.rate_rps > 0.0 && Float.is_finite c.rate_rps) then
    bad "rate_rps must be positive and finite (got %g)" c.rate_rps
  else if c.connections < 1 then bad "connections must be positive (got %d)" c.connections
  else if not (c.warmup_s >= 0.0) then bad "warmup_s must be >= 0 (got %g)" c.warmup_s
  else if not (c.measure_s > 0.0) then bad "measure_s must be positive (got %g)" c.measure_s
  else if not (c.grace_s >= 0.0) then bad "grace_s must be >= 0 (got %g)" c.grace_s
  else
    match bad_weight with
    | Some (name, w) -> bad "mix.%s must be finite and >= 0 (got %g)" name w
    | None ->
        if not (m.echo +. m.kv +. m.tpcc +. m.echo_heavy > 0.0) then
          bad "mix weights must not all be zero"
        else if m.echo_spin_ns < 0 then
          bad "mix.echo_spin_ns must be >= 0 (got %d)" m.echo_spin_ns
        else if m.echo_heavy_spin_ns < 0 then
          bad "mix.echo_heavy_spin_ns must be >= 0 (got %d)" m.echo_heavy_spin_ns
        else (
          match c.stats_interval_s with
          | Some s when not (s > 0.0) -> bad "stats_interval_s must be positive (got %g)" s
          | _ -> None)

let sample_request rng mix =
  let total = mix.echo +. mix.echo_heavy +. mix.kv +. mix.tpcc in
  let r = Prng.float rng total in
  if r < mix.echo then Protocol.Echo { spin_ns = mix.echo_spin_ns; payload = "" }
  else if r < mix.echo +. mix.echo_heavy then
    (* the heavy tail of a skewed offered load: same unkeyed echo
       class, much longer spin — the backlog that piles up behind one
       worker under skewed load *)
    Protocol.Echo { spin_ns = mix.echo_heavy_spin_ns; payload = "" }
  else if r < mix.echo +. mix.echo_heavy +. mix.kv then begin
    let key = App.kv_key (Prng.int rng (max 1 mix.kv_keys)) in
    if Prng.bernoulli rng ~p:mix.kv_set_fraction then
      Protocol.Kv_set { key; value = "v" }
    else Protocol.Kv_get { key }
  end
  else Protocol.Tpcc { kind = Transactions.sample_kind rng }

let connect config =
  Array.init config.connections (fun _ ->
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string config.host, config.port));
      (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
      Unix.set_nonblock fd;
      {
        fd;
        rb = Protocol.Reassembly.create ();
        out = Protocol.Outbuf.create ();
        scratch = Buffer.create 256;
      })

let flush_conn c =
  if not (Protocol.Outbuf.is_empty c.out) then begin
    let buf, off, len = Protocol.Outbuf.peek c.out in
    match Unix.write c.fd buf off len with
    | n -> Protocol.Outbuf.consume c.out n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
        raise End_of_file
  end

let run config =
  Option.iter invalid_arg (config_error config);
  let rng = Prng.create ~seed:config.seed in
  let conns = connect config in
  let chunk = Bytes.create 65536 in
  let latency = Latency.create () in
  let all = Latency.recorder latency "all" in
  let per_class =
    Array.init Protocol.class_count (fun i ->
        Latency.recorder latency (Protocol.class_name i))
  in
  (* The generator's lag: actual minus intended send time, over the
     measured sends. *)
  let lag = Latency.recorder (Latency.create ()) "lag" in
  (* req_id -> (intended send time, class, intended inside the
     measurement window) *)
  let pending : (int, int * int * bool) Hashtbl.t = Hashtbl.create 4096 in
  let sent = ref 0
  and received = ref 0
  and ok = ref 0
  and shed = ref 0
  and errors = ref 0
  and measured_sent = ref 0
  and measured_ok = ref 0 in
  let t0 = Time_unit.now_ns () in
  let warmup_end = t0 + int_of_float (config.warmup_s *. 1e9) in
  let measure_end = warmup_end + int_of_float (config.measure_s *. 1e9) in
  let interarrival = 1e9 /. config.rate_rps in
  let next_send = ref (float_of_int t0) in
  let next_id = ref 0 in
  let progress = ref false in
  (* SLO monitoring is always on (one short list walk per response);
     with no explicit objectives the default one stands in, so the
     dashboard and report never come up empty. *)
  let objectives = if config.slo = [] then [ Slo.default_objective ] else config.slo in
  let slo_mon = Slo.create ~now_ns:t0 objectives in
  (* Periodic tick state: stats polling over a dedicated connection
     (the Stats RPC, so the view is the server's, not ours) and the live
     dashboard. *)
  let ticking = config.dashboard || config.stats_interval_s <> None in
  let tick_ns =
    int_of_float (Option.value config.stats_interval_s ~default:0.5 *. 1e9)
  in
  let next_tick = ref (if ticking then t0 + tick_ns else max_int) in
  let stats_client =
    if config.stats_interval_s <> None then
      try Some (Client.connect ~host:config.host ~port:config.port ()) with _ -> None
    else None
  in
  let stats_polls = ref [] in
  let thr_series = ref [] in
  let last_tick_ok = ref 0 in
  let last_tick_ns = ref t0 in
  let keep n l = List.filteri (fun i _ -> i < n) l in
  let render_dashboard ~now ~elapsed =
    let b = Buffer.create 2048 in
    Buffer.add_string b "\x1b[2J\x1b[H";
    Buffer.add_string b
      (Printf.sprintf "tq_load dashboard   t=%6.1fs   offered %.0f rps\n" elapsed
         config.rate_rps);
    Buffer.add_string b
      (Printf.sprintf "sent %d   ok %d   shed %d   errors %d   outstanding %d\n\n"
         !sent !ok !shed !errors (Hashtbl.length pending));
    Buffer.add_string b (Slo.render ~now_ns:now slo_mon);
    let goodput =
      Ascii_chart.render ~height:10 ~x_label:"window age (s)" ~y_label:"good frac"
        ~title:"SLO goodput over the sliding window"
        (List.map
           (fun (o : Slo.objective) ->
             { Ascii_chart.label = o.name; points = Slo.window_series ~now_ns:now slo_mon o.name })
           objectives)
    in
    if goodput <> "" then Buffer.add_string b ("\n" ^ goodput);
    let thr =
      Ascii_chart.render ~height:8 ~x_label:"elapsed (s)" ~y_label:"rps"
        ~title:"achieved throughput"
        [ { Ascii_chart.label = "ok rps"; points = List.rev !thr_series } ]
    in
    if thr <> "" then Buffer.add_string b ("\n" ^ thr);
    prerr_string (Buffer.contents b);
    flush stderr
  in
  let tick now =
    next_tick := now + tick_ns;
    let elapsed = float_of_int (now - t0) /. 1e9 in
    let dt = float_of_int (now - !last_tick_ns) /. 1e9 in
    if dt > 0.0 then
      thr_series :=
        keep 240 ((elapsed, float_of_int (!ok - !last_tick_ok) /. dt) :: !thr_series);
    last_tick_ok := !ok;
    last_tick_ns := now;
    (match stats_client with
    | Some c -> (
        try stats_polls := (elapsed, Client.stats c) :: !stats_polls
        with _ -> ())
    | None -> ());
    if config.dashboard then render_dashboard ~now ~elapsed
  in
  let receive_conn c =
    match Unix.read c.fd chunk 0 (Bytes.length chunk) with
    | 0 -> raise End_of_file
    | n -> (
        progress := true;
        Protocol.Reassembly.add c.rb chunk n;
        let rec parse () =
          match Protocol.Reassembly.next c.rb with
          | Error msg -> failwith ("Load_gen: " ^ msg)
          | Ok None -> ()
          | Ok (Some payload) -> (
              match Protocol.decode_response payload with
              | Error msg -> failwith ("Load_gen: " ^ msg)
              | Ok resp ->
                  incr received;
                  (match Hashtbl.find_opt pending resp.Protocol.req_id with
                  | None -> ()
                  | Some (t_send, class_idx, measured) ->
                      Hashtbl.remove pending resp.Protocol.req_id;
                      let now = Time_unit.now_ns () in
                      (match resp.Protocol.status with
                      | Protocol.Ok ->
                          Slo.observe slo_mon ~now_ns:now (`Ok (now - t_send));
                          incr ok;
                          if measured then begin
                            incr measured_ok;
                            let lat = now - t_send in
                            Latency.record all lat;
                            Latency.record per_class.(class_idx) lat
                          end
                      | Protocol.Shed ->
                          Slo.observe slo_mon ~now_ns:now `Shed;
                          incr shed
                      | Protocol.Error _ ->
                          Slo.observe slo_mon ~now_ns:now `Error;
                          incr errors));
                  parse ())
        in
        parse ())
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> raise End_of_file
  in
  let sending = ref true in
  let grace_deadline = ref max_int in
  (* empty poll rounds since the last one that moved something *)
  let idle_rounds = ref 0 in
  (try
     while
       !sending || (Hashtbl.length pending > 0 && Time_unit.now_ns () < !grace_deadline)
     do
       let now = Time_unit.now_ns () in
       if !sending then
         if now >= measure_end then begin
           sending := false;
           grace_deadline := now + int_of_float (config.grace_s *. 1e9)
         end
         else
           (* fire every arrival the schedule owes us — open loop, the
              generator never waits for the server *)
           while !sending && !next_send <= float_of_int now do
             let req = sample_request rng config.mix in
             let req_id = !next_id in
             incr next_id;
             (* encode only — one batched write per poll round (below)
                instead of a syscall per request *)
             let c = conns.(req_id mod Array.length conns) in
             Buffer.clear c.scratch;
             Protocol.encode_request c.scratch ~req_id req;
             Protocol.Outbuf.add_buffer c.out c.scratch;
             (* Stamp the schedule's send time, not this poll's: a late
                generator must show up in the latency, not hide in it. *)
             let intended = int_of_float !next_send in
             let measured = intended >= warmup_end && intended < measure_end in
             Hashtbl.replace pending req_id
               (intended, Protocol.class_of_request req, measured);
             incr sent;
             if measured then begin
               incr measured_sent;
               Latency.record lag (now - intended)
             end;
             progress := true;
             next_send := !next_send +. Prng.exponential rng ~mean:interarrival
           done;
       Array.iter flush_conn conns;
       Array.iter receive_conn conns;
       if ticking && now >= !next_tick then tick now;
       (* On a core shared with the server, empty poll rounds spin a
          little and then nap 50 us, handing it the core (catch-up
          sending keeps the offered rate honest across the nap). *)
       if !progress then begin
         progress := false;
         idle_rounds := 0
       end
       else begin
         incr idle_rounds;
         if !idle_rounds <= 200 then Domain.cpu_relax ()
         else try Unix.sleepf 5e-5 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
       end
     done
   with End_of_file -> ());
  Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) conns;
  (match stats_client with Some c -> Client.close c | None -> ());
  {
    sent = !sent;
    received = !received;
    ok = !ok;
    shed = !shed;
    errors = !errors;
    measured_sent = !measured_sent;
    measured_ok = !measured_ok;
    throughput_rps = float_of_int !measured_ok /. config.measure_s;
    latency;
    lag_p99_us = float_of_int (Latency.percentile lag 99.0) /. 1e3;
    lag_max_us = float_of_int (Latency.max_ns lag) /. 1e3;
    outstanding = Hashtbl.length pending;
    slo_reports = Slo.report slo_mon;
    stats_polls = List.rev !stats_polls;
  }

let to_json ?outliers config r =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Buffer.add_string b (Tq_util.Bench_meta.json_fields ());
  Buffer.add_string b "  \"benchmark\": \"tq_serve loopback\",\n";
  Buffer.add_string b
    (Printf.sprintf "  \"host_cores\": %d,\n" (Domain.recommended_domain_count ()));
  Buffer.add_string b
    (Printf.sprintf "  \"connections\": %d,\n  \"offered_rps\": %.0f,\n"
       config.connections config.rate_rps);
  Buffer.add_string b
    (Printf.sprintf
       "  \"warmup_s\": %g,\n  \"measure_s\": %g,\n  \"mix\": {\"echo\": %g, \"kv\": \
        %g, \"tpcc\": %g, \"echo_heavy\": %g, \"echo_spin_ns\": %d, \
        \"echo_heavy_spin_ns\": %d},\n"
       config.warmup_s config.measure_s config.mix.echo config.mix.kv config.mix.tpcc
       config.mix.echo_heavy config.mix.echo_spin_ns config.mix.echo_heavy_spin_ns);
  Buffer.add_string b
    (Printf.sprintf
       "  \"sent\": %d,\n  \"received\": %d,\n  \"ok\": %d,\n  \"shed\": %d,\n  \
        \"errors\": %d,\n  \"outstanding\": %d,\n"
       r.sent r.received r.ok r.shed r.errors r.outstanding);
  Buffer.add_string b
    (Printf.sprintf
       "  \"measured_sent\": %d,\n  \"measured_ok\": %d,\n  \"throughput_rps\": \
        %.0f,\n  \"lag_p99_us\": %.1f,\n  \"lag_max_us\": %.1f,\n"
       r.measured_sent r.measured_ok r.throughput_rps r.lag_p99_us r.lag_max_us);
  Buffer.add_string b "  \"slo\": [";
  List.iteri
    (fun i (rep : Slo.report) ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b
        (Printf.sprintf
           "{\"name\": %S, \"target_latency_ns\": %d, \"target_goodput\": %g, \
            \"window_total\": %d, \"compliance\": %.6f, \"burn_rate\": %.3f}"
           rep.objective.name rep.objective.latency_ns rep.objective.goodput
           rep.window_total rep.compliance rep.burn_rate))
    r.slo_reports;
  Buffer.add_string b "],\n";
  (match outliers with
  | None -> ()
  | Some json ->
      (* Splice the server's Stats_outliers body in verbatim: it is
         already one complete JSON object. *)
      Buffer.add_string b "  \"outliers\": ";
      Buffer.add_string b (String.trim json);
      Buffer.add_string b ",\n");
  Buffer.add_string b
    (Printf.sprintf "  \"latency\": %s\n}\n" (Latency.to_json r.latency));
  Buffer.contents b
