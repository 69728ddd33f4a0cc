(* The serving front-end: one dispatcher lane over a worker pool.

   The lane ({!Lane}) runs the accept/read/dispatch/reply/flush loop
   over every connection and every worker — workers never touch a
   socket; the lane never runs request work.  This module owns the
   rest: the pool and apps, the listening socket, the pooled framing
   buffers, the lane's lifecycle (it runs on the caller of [serve]),
   the feedback controller (ticked by the lane), and the views of the
   lane's ledger behind [stats], the Stats RPC and the Prometheus
   exposition. *)

module Parallel = Tq_runtime.Parallel
module Spsc_ring = Tq_runtime.Spsc_ring
module Admission = Tq_sched.Admission
module Counters = Tq_obs.Counters
module Obs = Tq_obs.Obs
module Span = Tq_obs.Span
module Tail = Tq_obs.Tail
module Latency = Tq_obs.Latency
module Expo = Tq_obs.Expo
module Profile = Tq_obs.Profile
module Gc_events = Tq_obs.Gc_events

type config = {
  host : string;
  port : int;
  workers : int;
  quantum_ns : int;
  ring_capacity : int;
  rx_depth : int;
  admission : Admission.policy;
  kv_keys : int;
  seed : int64;
  drain_timeout_s : float;
  adaptive : Tq_control.Controller.config option;
  heartbeat_interval_s : float;
  missed_heartbeats : int;
  pool_bufs : int;
  pool_buf_bytes : int;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    workers = 4;
    quantum_ns = 100_000;
    ring_capacity = 256;
    rx_depth = 1024;
    admission = Admission.Accept_all;
    kv_keys = 1024;
    seed = 42L;
    drain_timeout_s = 5.0;
    adaptive = None;
    heartbeat_interval_s = 0.05;
    missed_heartbeats = 4;
    pool_bufs = 1024;
    pool_buf_bytes = 4096;
  }

type stats = {
  connections : int;
  parsed : int;
  dispatched : int;
  completed : int;
  shed : int;
  lost : int;
  dropped : int;
  in_flight : int;
  stats_served : int;
  protocol_errors : int;
  orphaned : int;
  duplicates : int;
  redispatched : int;
  dead_workers : int;
}

type t = {
  port : int;
  pool : Parallel.t;
  bufs : Pool.t;
  lane : Lane.t;
  shared : Lane.shared;
  worker_regs : Counters.t array;  (** one per worker domain ([runtime.*]) *)
  ctl_reg : Counters.t;  (** [control.*], written by the lane's controller tick *)
  spans : Span.t;
  spans_on : bool;
  tail : Tail.t;
  tail_on : bool;
  gc : Gc_events.t option;
  ctl : Tq_control.Controller.t option;
  mutable ctl_next_ns : int;
  mutable tick_hook : (now_ns:int -> unit) option;
}

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

(* Every rule [create] needs, checked before anything is bound or
   built; the first one broken is the error. *)
let config_error c =
  let bad fmt = Printf.ksprintf Option.some fmt in
  let rejects validate v =
    match validate v with () -> None | exception Invalid_argument msg -> Some msg
  in
  if c.workers < 1 then bad "workers must be positive (got %d)" c.workers
  else if c.quantum_ns < 1 then bad "quantum_ns must be positive (got %d)" c.quantum_ns
  else if c.ring_capacity < 1 then
    bad "ring_capacity must be positive (got %d)" c.ring_capacity
  else if c.rx_depth < 1 then bad "rx_depth must be positive (got %d)" c.rx_depth
  else if c.kv_keys < 0 then bad "kv_keys must be >= 0 (got %d)" c.kv_keys
  else if c.heartbeat_interval_s < 0.0 then
    bad "heartbeat_interval_s must be >= 0 (got %g)" c.heartbeat_interval_s
  else if c.missed_heartbeats < 1 then
    bad "missed_heartbeats must be positive (got %d)" c.missed_heartbeats
  else if c.pool_bufs < 0 then bad "pool_bufs must be >= 0 (got %d)" c.pool_bufs
  else if c.pool_buf_bytes < Pool.min_buf_bytes then
    bad "pool_buf_bytes must be >= %d (got %d)" Pool.min_buf_bytes c.pool_buf_bytes
  else
    match rejects Admission.validate c.admission with
    | Some _ as e -> e
    | None -> Option.bind c.adaptive (rejects Tq_control.Controller.validate)

(* Set-up order: validate, build every structure on this domain, spawn
   the workers last.  Each minor collection in OCaml 5 stops every
   domain, parked workers included, so building the apps (about 150k
   words) after the spawn made each collection of the build wait for
   them (DESIGN.md, "Live serving"). *)
let create ?(spans = Span.null) ?(tail = Tail.null) ?gc config =
  Option.iter invalid_arg (config_error config);
  let listen_fd, port = Lane.listen ~host:config.host ~port:config.port in
  let worker_regs = Array.init config.workers (fun _ -> Counters.create ()) in
  let pool =
    Parallel.create ~workers:config.workers ~quantum_ns:config.quantum_ns
      ~ring_capacity:config.ring_capacity ~classes:Protocol.class_count ~spans
      ~worker_counters:worker_regs
      ?gc_pause_ns:(Option.map (fun g () -> Gc_events.self_pause_ns g) gc)
      ()
  in
  let ctl_reg = Counters.create () in
  let ctl =
    Option.map
      (Tq_control.Controller.create ~obs:(Obs.of_counters ctl_reg))
      config.adaptive
  in
  let ctl_latency_ns =
    match ctl with
    | Some c ->
        (Tq_control.Controller.config c).Tq_control.Controller.objective
          .Tq_obs.Slo.latency_ns
    | None -> max_int
  in
  let shared =
    {
      Lane.pool;
      apps =
        Array.init config.workers (fun i ->
            App.create ~kv_keys:config.kv_keys
              ~seed:(Int64.add config.seed (Int64.of_int i))
              ());
      reply_rings =
        Array.init config.workers (fun _ ->
            Spsc_ring.create ~capacity:(max 1024 (4 * config.ring_capacity)));
      bufs =
        Pool.create ~max_pooled:config.pool_bufs ~buf_bytes:config.pool_buf_bytes ();
      listen_fd;
      stop_flag = Atomic.make false;
      paused_until_ns = Atomic.make 0;
      spans;
      spans_on = Span.enabled spans;
      tail;
      tail_on = Tail.enabled tail;
      rx_depth = config.rx_depth;
      drain_timeout_s = config.drain_timeout_s;
      heartbeat_interval_ns = int_of_float (config.heartbeat_interval_s *. 1e9);
      missed_heartbeats = config.missed_heartbeats;
      ctl_latency_ns;
    }
  in
  let lane = Lane.create shared ~admission:config.admission in
  let t =
    {
      port;
      pool;
      bufs = shared.Lane.bufs;
      lane;
      shared;
      worker_regs;
      ctl_reg;
      spans;
      spans_on = Span.enabled spans;
      tail;
      tail_on = Tail.enabled tail;
      gc;
      ctl;
      ctl_next_ns = 0;
      tick_hook = None;
    }
  in
  (* Move the knobs to the controller's initial operating point before
     any request is admitted, so the loop starts from a known state. *)
  (match ctl with
  | None -> ()
  | Some c ->
      List.iter
        (function
          | Tq_control.Controller.Set_quantum { class_idx; quantum_ns } ->
              Parallel.set_quantum pool ?class_idx ~quantum_ns ()
          | Tq_control.Controller.Set_shed_limit { max_in_system } ->
              Admission.set_policy (Lane.admission lane)
                (Admission.Queue_limit { max_in_system }))
        (Tq_control.Controller.initial_actions c));
  Parallel.start pool;
  t

let port t = t.port
let stop t = Atomic.set t.shared.Lane.stop_flag true
let draining t = Atomic.get t.shared.Lane.stop_flag

(* {2 Reading the ledger}

   Every view reads the lane's ledger here: word-sized plain loads,
   never torn, eventually consistent live and exact once [serve]
   returned.  Each cell is loaded once and the derived counts
   ([parsed], [completed], [in_flight]) come from those same loads, so
   both identities hold exactly in every render. *)

let total = Array.fold_left ( + ) 0

(* One read of the per-class columns, and the flat [stats] derived
   from those same loads. *)
type read = {
  flat : stats;
  dispatched_by : int array;
  completed_by : int array;
  good_by : int array;
  shed_by : int array;
}

let read t =
  let l = Lane.ledger t.lane in
  let dispatched_by = Array.copy l.dispatched
  and good_by = Array.copy l.good
  and shed_by = Array.copy l.shed in
  let completed_by = Array.map2 ( + ) good_by l.late in
  let dispatched = total dispatched_by
  and completed = total completed_by
  and shed = total shed_by
  and lost = l.lost
  and dropped = l.dropped in
  let flat =
    {
      connections = l.connections;
      parsed = dispatched + shed;
      dispatched;
      completed;
      shed;
      lost;
      dropped;
      in_flight = dispatched - completed - lost - dropped;
      stats_served = l.stats_served;
      protocol_errors = l.protocol_errors;
      orphaned = l.orphaned;
      duplicates = l.duplicates;
      redispatched = l.redispatched;
      dead_workers = l.dead_workers;
    }
  in
  { flat; dispatched_by; completed_by; good_by; shed_by }

let stats t = (read t).flat

let ledger_violations s =
  let check holds fmt = Printf.ksprintf (fun m -> if holds then [] else [ m ]) fmt in
  check (s.parsed = s.dispatched + s.shed) "parsed = dispatched + shed (%d <> %d + %d)"
    s.parsed s.dispatched s.shed
  @ check
      (s.dispatched = s.completed + s.lost + s.dropped + s.in_flight)
      "accepted = completed + lost + dropped + in_flight (%d <> %d + %d + %d + %d)"
      s.dispatched s.completed s.lost s.dropped s.in_flight

(* a copy the caller owns: clearing it leaves the lane's registry alone *)
let latency t = Latency.merge [ Lane.latency t.lane ]

(* {2 Views}

   Rendering happens on whichever thread asks (an in-process accessor,
   the HTTP plane, or the lane serving a Stats RPC), so counters and
   gauges are written into render-local registries — never into the
   controller's or a worker's registry, each of which has exactly one
   writer. *)

let ring_occupancy t =
  let occ = ref 0 in
  for w = 0 to Parallel.workers t.pool - 1 do
    occ := !occ + Parallel.ring_depth t.pool ~worker:w
  done;
  !occ

let span_dropped t = Lane.span_dropped t.lane

(* The dispatcher's [serve.*] series, from one read of the ledger: the
   one place the metric names are written.  Gauges are set last, so
   they overwrite whatever [reg] merged in. *)
let fill_dispatcher t reg =
  let r = read t in
  let s = r.flat in
  let count name n = Counters.add (Counters.counter reg ("serve." ^ name)) n in
  let gauge name v = Counters.set (Counters.gauge reg name) (float_of_int v) in
  count "parsed" s.parsed;
  count "dispatched" s.dispatched;
  count "completed" s.completed;
  count "shed" s.shed;
  count "stats_served" s.stats_served;
  count "duplicates" s.duplicates;
  count "redispatched" s.redispatched;
  count "workers_dead" s.dead_workers;
  Array.iteri
    (fun i d ->
      let cls = "." ^ Protocol.class_name i in
      count ("parsed" ^ cls) (d + r.shed_by.(i));
      count ("dispatched" ^ cls) d;
      count ("completed" ^ cls) r.completed_by.(i);
      count ("shed" ^ cls) r.shed_by.(i))
    r.dispatched_by;
  gauge "serve.accepted" s.dispatched;
  gauge "serve.lost" s.lost;
  gauge "serve.dropped" s.dropped;
  gauge "serve.in_flight" s.in_flight;
  gauge "serve.open_connections" (Lane.open_conns t.lane);
  gauge "serve.alive_workers" (Parallel.alive_workers t.pool);
  gauge "serve.ring_occupancy" (ring_occupancy t);
  gauge "obs.span_dropped" (span_dropped t);
  Pool.fill_counters t.bufs reg;
  reg

let gc_registries t =
  match t.gc with None -> [] | Some g -> [ Gc_events.counters g ]

let merged_counters t =
  fill_dispatcher t
    (Counters.merged ((t.ctl_reg :: Array.to_list t.worker_regs) @ gc_registries t))

let snapshot_json t =
  let r = read t in
  let s = r.flat in
  let merged = Counters.merged (Array.to_list t.worker_regs) in
  let b = Buffer.create 2048 in
  Buffer.add_string b "{\n";
  Buffer.add_string b
    (Printf.sprintf
       "  \"connections\": %d,\n  \"parsed\": %d,\n  \"dispatched\": %d,\n  \
        \"completed\": %d,\n  \"shed\": %d,\n  \"lost\": %d,\n  \"dropped\": %d,\n  \
        \"in_flight\": %d,\n  \"stats_served\": %d,\n  \"protocol_errors\": %d,\n  \
        \"orphaned\": %d,\n  \"duplicates\": %d,\n  \"redispatched\": %d,\n  \
        \"dead_workers\": %d,\n  \"open_connections\": %d,\n  \"workers\": %d,\n  \
        \"alive_workers\": %d,\n  \"ring_occupancy\": %d,\n"
       s.connections s.parsed s.dispatched s.completed s.shed s.lost s.dropped
       s.in_flight s.stats_served s.protocol_errors s.orphaned s.duplicates
       s.redispatched s.dead_workers (Lane.open_conns t.lane)
       (Parallel.workers t.pool)
       (Parallel.alive_workers t.pool)
       (ring_occupancy t));
  (* the I/O plane: framing-pool health *)
  Buffer.add_string b
    (Printf.sprintf
       "  \"io_plane\": {\"pool\": {\"buf_bytes\": %d, \"pooled\": %d, \"hits\": %d, \
        \"misses\": %d, \"oversize\": %d, \"discarded\": %d}},\n"
       (Pool.buf_bytes t.bufs) (Pool.pooled t.bufs) (Pool.hits t.bufs)
       (Pool.misses t.bufs) (Pool.oversize t.bufs) (Pool.discarded t.bufs));
  (match t.ctl with
  | None -> ()
  | Some c ->
      Buffer.add_string b
        (Printf.sprintf "  \"control\": %s,\n" (Tq_control.Controller.state_json c)));
  Buffer.add_string b "  \"per_class\": {\n";
  Array.iteri
    (fun i d ->
      Buffer.add_string b
        (Printf.sprintf
           "    %S: {\"parsed\": %d, \"dispatched\": %d, \"completed\": %d, \"shed\": \
            %d}%s\n"
           (Protocol.class_name i) (d + r.shed_by.(i)) d r.completed_by.(i)
           r.shed_by.(i)
           (if i = Protocol.class_count - 1 then "" else ",")))
    r.dispatched_by;
  Buffer.add_string b "  },\n";
  Buffer.add_string b
    (Printf.sprintf
       "  \"runtime\": {\"quanta\": %d, \"yields\": %d, \"completions\": %d, \
        \"stalls\": %d},\n"
       (Counters.find_count merged "runtime.quanta")
       (Counters.find_count merged "runtime.yields")
       (Counters.find_count merged "runtime.completions")
       (Counters.find_count merged "runtime.stalls"));
  (match t.gc with
  | None -> ()
  | Some g ->
      let greg = Gc_events.counters g in
      Buffer.add_string b
        (Printf.sprintf
           "  \"gc\": {\"minor_pauses\": %d, \"major_pauses\": %d, \"events_lost\": \
            %d, \"stall_gc\": %d, \"stall_other\": %d},\n"
           (Counters.find_count greg "gc.minor_pauses")
           (Counters.find_count greg "gc.major_pauses")
           (Counters.find_count greg "gc.events_lost")
           (Counters.find_count merged "runtime.stall_gc")
           (Counters.find_count merged "runtime.stall_other")));
  (if t.spans_on then
     Buffer.add_string b
       (Printf.sprintf "  \"spans\": {\"total\": %d, \"dropped\": %d},\n"
          (Span.total t.spans) (Span.dropped t.spans)));
  Buffer.add_string b
    (Printf.sprintf "  \"latency\": %s\n}\n" (Latency.to_json (latency t)));
  Buffer.contents b

let breakdown t = Profile.of_records (Span.merge t.spans)

(* {2 Tail forensics views} *)

let outlier_dossiers t ~limit =
  let limit = if limit <= 0 then Tail.retained t.tail else limit in
  Tail.dossiers t.tail ~records:(Span.merge t.spans) ~limit

let tail_trace t = Tail.to_chrome t.tail (Span.merge t.spans)

let prometheus t =
  let disp = fill_dispatcher t (Counters.merged [ t.ctl_reg ]) in
  let registries =
    ([ ("role", "dispatcher") ], disp)
    :: List.mapi
        (fun i reg -> ([ ("role", "worker"); ("worker", string_of_int i) ], reg))
        (Array.to_list t.worker_regs)
    @ (match t.gc with
      | None -> []
      | Some g -> [ ([ ("role", "gc") ], Gc_events.counters g) ])
  in
  Expo.render registries
  ^ Expo.render_latency ~name:"serve_latency_ns" (latency t)
  ^
  (* Per-stage series come from decomposing the live span buffers — a
     merge per scrape, fine at scrape cadence, meaningless without
     spans. *)
  if t.spans_on then
    Expo.render_latency ~name:"serve_stage_ns" (Profile.latency (breakdown t))
  else ""

(* {2 The Stats RPC renderer}

   Wired into the lane, and called by the HTTP plane from its own
   thread.  All inputs are reads safe from any thread. *)

let render_stats t view =
  match view with
  | Protocol.Stats_json -> Ok (snapshot_json t)
  | Protocol.Stats_text -> Ok (prometheus t)
  | Protocol.Stats_trace -> Ok (Span.to_chrome ~process:"tq_serve" t.spans)
  | Protocol.Stats_control -> (
      match t.ctl with
      | Some c -> Ok (Tq_control.Controller.state_json c)
      | None -> Error "controller off: run the server with --adaptive")
  | Protocol.Stats_breakdown | Protocol.Stats_breakdown_text ->
      if not t.spans_on then
        Error "stage breakdown needs spans: run the server with --obs"
      else
        let p = breakdown t in
        Ok
          (match view with
          | Protocol.Stats_breakdown -> Profile.to_json p
          | _ -> Profile.render p)
  | Protocol.Stats_outliers { limit } | Protocol.Stats_outliers_text { limit } ->
      if not t.tail_on then
        Error "tail forensics off: run the server with --tail-k > 0"
      else
        let ds = outlier_dossiers t ~limit in
        Ok
          (match view with
          | Protocol.Stats_outliers _ ->
              Tail.dossiers_json ~class_name:Protocol.class_name t.tail ds
          | _ -> Tail.render ~class_name:Protocol.class_name ds)

(* {2 The feedback control loop}

   Ticked by the lane; senses the ledger's per-class tallies and
   actuates the pool's quantum cells and the lane's admission policy
   cell. *)

let controller_tick t ~now =
  match t.ctl with
  | None -> ()
  | Some c ->
      if now >= t.ctl_next_ns then begin
        let interval =
          (Tq_control.Controller.config c).Tq_control.Controller.interval_ns
        in
        t.ctl_next_ns <- now + interval;
        let r = read t in
        let classes =
          Array.init Protocol.class_count (fun i ->
              {
                Tq_control.Controller.completed = r.completed_by.(i);
                good = r.good_by.(i);
                shed = r.shed_by.(i);
              })
        in
        let actions =
          Tq_control.Controller.tick c
            {
              Tq_control.Controller.now_ns = now;
              queued = ring_occupancy t;
              in_flight = Parallel.in_flight t.pool;
              busy_cores = Parallel.alive_workers t.pool;
              classes;
            }
        in
        List.iter
          (function
            | Tq_control.Controller.Set_quantum { class_idx; quantum_ns } ->
                Parallel.set_quantum t.pool ?class_idx ~quantum_ns ()
            | Tq_control.Controller.Set_shed_limit { max_in_system } ->
                Admission.set_policy (Lane.admission t.lane)
                  (Admission.Queue_limit { max_in_system }))
          actions
      end

(* {2 Live fault hooks} *)

let inject_stall t ~worker ~duration_ns =
  Parallel.stall_worker t.pool ~worker ~duration_ns ~now_ns:(now_ns ())

let kill_worker t ~worker = Parallel.kill_worker t.pool ~worker

let pause_dispatcher t ~duration_ns =
  Atomic.set t.shared.Lane.paused_until_ns (now_ns () + duration_ns)

let on_tick t f = t.tick_hook <- Some f
let control_json t = Option.map Tq_control.Controller.state_json t.ctl
let alive_workers t = Parallel.alive_workers t.pool

let serve t =
  Lane.set_stats_renderer t.lane (render_stats t);
  Lane.set_tick t.lane (fun ~now_ns:now ->
      (match t.tick_hook with Some f -> f ~now_ns:now | None -> ());
      (* the fault schedule above may have just paused the plane; the
         controller honours the pause like everything else *)
      if now >= Atomic.get t.shared.Lane.paused_until_ns then
        controller_tick t ~now);
  Lane.run t.lane;
  ignore (Parallel.shutdown t.pool : Parallel.stats)
