(* The serving front-end: TQ's first level over real sockets, on one
   dispatcher loop over a worker pool.

   [serve] is the loop: it accepts on the listening socket, owns every
   connection, steers each parsed request to a worker (KV by key hash,
   everything else JSQ-MSQ over every living worker), polls every worker's
   reply ring and flushes responses back.  Workers never touch a
   socket; the loop never runs request work.  It is the only producer
   on every inject ring and the only consumer of every reply ring, so
   the SPSC contract holds with zero coordination, and every loop
   structure — connection table, pending table, ledger, latency
   registry, span sink — is single-writer plain mutable state.

   This module also owns the pool and apps, the pooled framing buffers,
   the feedback controller (ticked by the loop), and the views of the
   ledger behind [stats], the Stats RPC and the Prometheus exposition.
   Other threads (the HTTP metrics plane, an in-process [stats]) read
   the ledger with word-sized plain loads: never torn, only eventually
   consistent — and exact once [serve] has returned. *)

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
module Reassembly = Protocol.Reassembly
module Outbuf = Protocol.Outbuf

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

(* Reply-ring payload: connection, span/request id, request class,
   dispatch stamp, worker-side completion stamp (0 when spans are off),
   and the encoded frame as a pooled buffer plus its live length. *)
type reply = {
  r_cid : int;
  r_sid : int;
  r_class : int;
  r_t0 : int;
  r_done : int;
  r_buf : bytes;  (* pooled: the loop releases it after blitting *)
  r_len : int;
}

type conn = {
  fd : Unix.file_descr;
  cid : int;
  rb : Reassembly.t;
  wb : Outbuf.t;
  mutable alive : bool;
}

(* The loop's only per-request record: each event updates exactly one
   cell.  A completion lands in [good] or [late] (against the
   controller's latency objective), so [completed] is their sum and
   has no cell of its own.  Nothing derived is stored: [parsed] is
   [dispatched + shed] and [in_flight] is
   [dispatched - completed - lost - dropped], both computed by the
   reader from the loads it reports, so the two identities hold
   exactly even in a render racing the loop.  [lost] is stamped once
   at loop exit (requests still pending after the drain deadline —
   dead-worker leftovers); [dropped] is the structural reserve for a
   future queue-drop path, 0 today. *)
type ledger = {
  dispatched : int array;  (* by class *)
  good : int array;
  late : int array;
  shed : int array;
  mutable connections : int;
  mutable lost : int;
  mutable dropped : int;
  mutable stats_served : int;
  mutable protocol_errors : int;
  mutable orphaned : int;
  mutable duplicates : int;
  mutable redispatched : int;
  mutable dead_workers : int;
}

(* One admitted-but-unanswered request, keyed by span id: everything
   needed to re-dispatch to another worker if its current one is
   declared dead.  First reply retires the entry; replies that
   find no entry are duplicates and are dropped with a count. *)
type pending = {
  p_cid : int;
  p_req_id : int;
  p_req : Protocol.request;
  p_class : int;
  p_t0 : int;
  mutable p_worker : int;
  (* controller / queue state sampled at dispatch, for tail dossiers
     (all zero / -1 when tail sampling is off) *)
  p_quantum_ns : int;
  p_cap : int;
  p_inject : int;
}

type t = {
  port : int;
  pool : Parallel.t;
  apps : App.t array;
  reply_rings : reply Spsc_ring.t array;  (* indexed by worker *)
  bufs : Pool.t;
  listen_fd : Unix.file_descr;
  stop_flag : bool Atomic.t;
  paused_until_ns : int Atomic.t;
  spans : Span.t;
  spans_on : bool;
  tail : Tail.t;
  tail_on : bool;
  rx_depth : int;
  drain_timeout_s : float;
  heartbeat_interval_ns : int;
  missed_heartbeats : int;
  ctl_latency_ns : int;
  workers : int;
  mutable listening : bool;
  conns : (int, conn) Hashtbl.t;
  pending : (int, pending) Hashtbl.t;
  ledger : ledger;
  sink : Span.sink;
  tail_sink : Tail.sink;
  latency : Latency.t;
  lat_all : Latency.recorder;
  lat_class : Latency.recorder array;
  adm : Admission.t;
  hb_beats : int array;  (* by worker *)
  hb_missed : int array;
  mutable hb_next_ns : int;
  mutable next_cid : int;
  mutable next_sid : int;
  worker_regs : Counters.t array;  (** one per worker domain ([runtime.*]) *)
  ctl_reg : Counters.t;  (** [control.*], written by the loop's controller tick *)
  gc : Gc_events.t option;
  ctl : Tq_control.Controller.t option;
  mutable ctl_next_ns : int;
  mutable tick_hook : (now_ns:int -> unit) option;
}

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

(* Every rule [create] needs, checked before anything is bound or
   built; the first one broken is the error. *)
let config_error (c : config) =
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

(* {2 The listening socket} *)

let listen ~host ~port =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd SO_REUSEADDR true;
     Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
     Unix.listen fd 128;
     Unix.set_nonblock fd
   with e ->
     Unix.close fd;
     raise e);
  match Unix.getsockname fd with
  | Unix.ADDR_INET (_, p) -> (fd, p)
  | _ -> (fd, port)

(* Set-up order: validate, build every structure on this domain, spawn
   the workers last.  Each minor collection in OCaml 5 stops every
   domain, parked workers included, so building the apps (about 150k
   words) after the spawn made each collection of the build wait for
   them (DESIGN.md, "Live serving"). *)
let create ?(spans = Span.null) ?(tail = Tail.null) ?gc config =
  Option.iter invalid_arg (config_error config);
  let listen_fd, port = listen ~host:config.host ~port:config.port in
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
  let apps =
    Array.init config.workers (fun i ->
        App.create ~kv_keys:config.kv_keys
          ~seed:(Int64.add config.seed (Int64.of_int i))
          ())
  in
  let reply_rings =
    Array.init config.workers (fun _ ->
        Spsc_ring.create ~capacity:(max 1024 (4 * config.ring_capacity)))
  in
  let bufs = Pool.create ~max_pooled:config.pool_bufs ~buf_bytes:config.pool_buf_bytes () in
  let workers = Parallel.workers pool in
  let latency = Latency.create () in
  let by_class () = Array.make Protocol.class_count 0 in
  let t =
    {
      port;
      pool;
      apps;
      reply_rings;
      bufs;
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
      workers;
      listening = true;
      conns = Hashtbl.create 64;
      pending = Hashtbl.create 1024;
      ledger =
        {
          dispatched = by_class ();
          good = by_class ();
          late = by_class ();
          shed = by_class ();
          connections = 0;
          lost = 0;
          dropped = 0;
          stats_served = 0;
          protocol_errors = 0;
          orphaned = 0;
          duplicates = 0;
          redispatched = 0;
          dead_workers = 0;
        };
      sink = Span.register spans (Span.Dispatcher 0);
      tail_sink = Tail.register tail ~lane:0;
      latency;
      lat_all = Latency.recorder latency "all";
      lat_class =
        Array.init Protocol.class_count (fun i ->
            Latency.recorder latency (Protocol.class_name i));
      adm = Admission.create config.admission;
      hb_beats = Array.make workers (-1);
      hb_missed = Array.make workers 0;
      hb_next_ns = 0;
      next_cid = 0;
      next_sid = 0;
      worker_regs;
      ctl_reg;
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
              Admission.set_policy t.adm (Admission.Queue_limit { max_in_system }))
        (Tq_control.Controller.initial_actions c));
  Parallel.start pool;
  t

let port t = t.port
let stop t = Atomic.set t.stop_flag true
let draining t = Atomic.get t.stop_flag

(* {2 Reading the ledger}

   Every view reads the ledger here: word-sized plain loads,
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
  let l = t.ledger in
  let dispatched_by = Array.copy l.dispatched
  and good_by = Array.copy l.good
  and shed_by = Array.copy l.shed in
  let completed_by = Array.map2 ( + ) good_by l.late in
  let dispatched = total dispatched_by
  and completed = total completed_by
  and shed = total shed_by
  and lost = l.lost
  and dropped = l.dropped in
  let flat : stats =
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

let ledger_violations (s : stats) =
  let check holds fmt = Printf.ksprintf (fun m -> if holds then [] else [ m ]) fmt in
  check (s.parsed = s.dispatched + s.shed) "parsed = dispatched + shed (%d <> %d + %d)"
    s.parsed s.dispatched s.shed
  @ check
      (s.dispatched = s.completed + s.lost + s.dropped + s.in_flight)
      "accepted = completed + lost + dropped + in_flight (%d <> %d + %d + %d + %d)"
      s.dispatched s.completed s.lost s.dropped s.in_flight

(* a copy the caller owns: clearing it leaves the loop's registry alone *)
let latency t = Latency.merge [ t.latency ]

(* {2 Views}

   Rendering happens on whichever thread asks (an in-process accessor,
   the HTTP plane, or the loop serving a Stats RPC), so counters and
   gauges are written into render-local registries — never into the
   controller's or a worker's registry, each of which has exactly one
   writer. *)

let ring_occupancy t =
  let occ = ref 0 in
  for w = 0 to Parallel.workers t.pool - 1 do
    occ := !occ + Parallel.ring_depth t.pool ~worker:w
  done;
  !occ

let span_dropped t = Span.sink_dropped t.sink

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
  gauge "serve.open_connections" (Hashtbl.length t.conns);
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
       s.redispatched s.dead_workers (Hashtbl.length t.conns)
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

   Called by the loop for a Stats RPC, and by the HTTP plane from its
   own thread.  All inputs are reads safe from any thread. *)

let render_stats t view =
  match view with
  | Protocol.Stats_json -> Ok (snapshot_json t)
  | Protocol.Stats_text -> Ok (prometheus t)
  | Protocol.Stats_trace ->
      if not t.spans_on then Error "span trace needs spans: run the server with --obs"
      else Ok (Span.to_chrome ~process:"tq_serve" t.spans)
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

   Ticked by the loop; senses the ledger's per-class tallies and
   actuates the pool's quantum cells and the admission policy cell. *)

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
                Admission.set_policy t.adm
                  (Admission.Queue_limit { max_in_system }))
          actions
      end

(* {2 Live fault hooks} *)

let inject_stall t ~worker ~duration_ns =
  Parallel.stall_worker t.pool ~worker ~duration_ns ~now_ns:(now_ns ())

let kill_worker t ~worker = Parallel.kill_worker t.pool ~worker

let pause_dispatcher t ~duration_ns =
  Atomic.set t.paused_until_ns (now_ns () + duration_ns)

let on_tick t f = t.tick_hook <- Some f
let control_json t = Option.map Tq_control.Controller.state_json t.ctl
let alive_workers t = Parallel.alive_workers t.pool

(* {2 The dispatcher loop} *)

let bump cells i = cells.(i) <- cells.(i) + 1
let in_flight t = total t.ledger.dispatched - total t.ledger.good - total t.ledger.late

(* {2 Connection lifecycle} *)

let stop_listening t =
  if t.listening then begin
    t.listening <- false;
    try Unix.close t.listen_fd with Unix.Unix_error _ -> ()
  end

let close_conn t conn =
  if conn.alive then begin
    conn.alive <- false;
    Hashtbl.remove t.conns conn.cid;
    try Unix.close conn.fd with Unix.Unix_error _ -> ()
  end

let adopt_fd t fd =
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  let cid = t.next_cid in
  t.next_cid <- cid + 1;
  Hashtbl.replace t.conns cid
    { fd; cid; rb = Reassembly.create (); wb = Outbuf.create (); alive = true };
  t.ledger.connections <- t.ledger.connections + 1;
  if t.spans_on then
    Span.record t.sink ~req_id:(-1) ~phase:Span.Accept ~start_ns:(now_ns ())
      ~dur_ns:0 ~arg:cid

(* Dispatcher-side responses (shed verdicts, stats bodies) go through
   the same pooled zero-copy path as worker replies. *)
let add_response t conn resp =
  let len = Protocol.response_frame_len resp in
  let buf = Pool.acquire t.bufs ~len in
  let n = Protocol.encode_response_into buf ~off:0 resp in
  Outbuf.add_bytes conn.wb buf ~off:0 ~len:n;
  Pool.release t.bufs buf

let shed_response t conn req_id =
  add_response t conn { Protocol.req_id; status = Protocol.Shed; body = "" }

(* Stats requests are introspection, answered synchronously on the
   loop: they must work during overload (when admission sheds request
   work) and must not perturb the accounting they report. *)
let serve_stats t conn req_id view =
  t.ledger.stats_served <- t.ledger.stats_served + 1;
  let resp =
    match render_stats t view with
    | Error msg -> { Protocol.req_id; status = Protocol.Error msg; body = "" }
    | Ok body ->
        if String.length body <= Protocol.max_frame_bytes - 16 then
          { Protocol.req_id; status = Protocol.Ok; body }
        else
          { Protocol.req_id; status = Protocol.Error "stats body too large"; body = "" }
  in
  add_response t conn resp

(* {2 Dispatch} *)

(* The worker-side closure for one request: execute on the running
   worker's app, encode into a pooled buffer, push onto that worker's
   reply ring.  The app and ring are looked up from the [wid] the pool
   passes at execution — the worker the job was submitted to — so the
   closure needs no placement argument and each reply ring keeps one
   producer, its own worker. *)
let make_job t ~sid ~cid ~class_idx ~t0 ~req_id req =
  let apps = t.apps in
  let rings = t.reply_rings in
  let bufs = t.bufs in
  let spans_on = t.spans_on in
  fun ~wid ->
    let app = apps.(wid) in
    let ring = rings.(wid) in
    let resp = App.execute app ~req_id req in
    let len = Protocol.response_frame_len resp in
    let buf = Pool.acquire bufs ~len in
    let n = Protocol.encode_response_into buf ~off:0 resp in
    let reply =
      {
        r_cid = cid;
        r_sid = sid;
        r_class = class_idx;
        r_t0 = t0;
        r_done = (if spans_on then now_ns () else 0);
        r_buf = buf;
        r_len = n;
      }
    in
    if not (Spsc_ring.try_push ring reply) then begin
      let backoff = Tq_runtime.Backoff.create () in
      while not (Spsc_ring.try_push ring reply) do
        Tq_runtime.Backoff.once backoff
      done
    end

let shed t conn ~p0 ~class_idx req_id =
  bump t.ledger.shed class_idx;
  if t.spans_on then
    Span.record t.sink ~req_id:(-1) ~phase:Span.Shed ~start_ns:p0
      ~dur_ns:(max 0 (now_ns () - p0))
      ~arg:class_idx;
  shed_response t conn req_id

(* [p0] is the parse-start stamp from [parse_frames] (0 when spans are
   off): the request's first boundary.  A dispatched request gets a
   per-request [Parse] span [p0, t0) under its span id so the stage
   decomposition can telescope from the very first touch; a shed
   request gets a [Shed] span covering [p0, decision). *)
let dispatch t conn ~p0 req_id req =
  let class_idx = Protocol.class_of_request req in
  let pool_load = Parallel.in_flight t.pool in
  let admitted =
    Parallel.alive_workers t.pool > 0
    && pool_load < t.rx_depth
    && Admission.admit t.adm ~in_system:pool_load
  in
  if not admitted then shed t conn ~p0 ~class_idx req_id
  else begin
    let key = Protocol.steering_key req in
    let w =
      match key with
      | Some key ->
          (* Keyed steering, unless the home worker died —
             consistency yields to availability (its store is gone
             anyway). *)
          let w = Hashtbl.hash key mod t.workers in
          if Parallel.worker_alive t.pool ~worker:w then w else Parallel.pick t.pool
      | None -> Parallel.pick t.pool
    in
    let sid = t.next_sid in
    let cid = conn.cid in
    (* Tail forensics samples the controller and queue state the
       request saw at dispatch — quantum in force for its class, the
       admission cap, and the chosen worker's inject-ring depth — so a
       slow request's dossier can say what the plane looked like when
       it was placed.  Guarded: the disabled path reads no state. *)
    let q_ns, cap, inj =
      if t.tail_on then
        ( Parallel.quantum_ns t.pool ~class_idx (),
          (match Admission.policy t.adm with
          | Admission.Queue_limit { max_in_system } -> max_in_system
          | Admission.Accept_all | Admission.Ewma_sojourn _ -> -1),
          Parallel.ring_depth t.pool ~worker:w )
      else (0, -1, 0)
    in
    let t0 = now_ns () in
    let job = make_job t ~sid ~cid ~class_idx ~t0 ~req_id req in
    if Parallel.submit_to t.pool ~tag:sid ~class_idx ~worker:w job then begin
      t.next_sid <- sid + 1;
      bump t.ledger.dispatched class_idx;
      Hashtbl.replace t.pending sid
        {
          p_cid = cid;
          p_req_id = req_id;
          p_req = req;
          p_class = class_idx;
          p_t0 = t0;
          p_worker = w;
          p_quantum_ns = q_ns;
          p_cap = cap;
          p_inject = inj;
        };
      if t.spans_on then begin
        Span.record t.sink ~req_id:sid ~phase:Span.Parse ~start_ns:p0
          ~dur_ns:(max 0 (t0 - p0)) ~arg:conn.cid;
        Span.record t.sink ~req_id:sid ~phase:Span.Dispatch ~start_ns:t0
          ~dur_ns:(now_ns () - t0) ~arg:w
      end
    end
    else
      (* the chosen core's ring is full: backpressure, shed at the door *)
      shed t conn ~p0 ~class_idx req_id
  end

let rec parse_frames t conn =
  if conn.alive then
    match Reassembly.next conn.rb with
    | Error _ ->
        t.ledger.protocol_errors <- t.ledger.protocol_errors + 1;
        close_conn t conn
    | Ok None -> ()
    | Ok (Some payload) -> (
        let p0 = if t.spans_on then now_ns () else 0 in
        match Protocol.decode_request payload with
        | Error _ ->
            t.ledger.protocol_errors <- t.ledger.protocol_errors + 1;
            close_conn t conn
        | Ok (req_id, req) ->
            (match req with
            | Protocol.Stats { view } -> serve_stats t conn req_id view
            | _ -> dispatch t conn ~p0 req_id req);
            parse_frames t conn)

let rec accept_new t progress =
  match Unix.accept ~cloexec:true t.listen_fd with
  | fd, _ ->
      Unix.set_nonblock fd;
      progress := true;
      adopt_fd t fd;
      accept_new t progress
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR | ECONNABORTED), _, _) -> ()

let read_conn t chunk progress conn =
  match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
  | 0 -> close_conn t conn
  | n ->
      progress := true;
      Reassembly.add conn.rb chunk n;
      parse_frames t conn
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> close_conn t conn

let conn_list t = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns []

let poll_replies t progress =
  Array.iteri
    (fun w ring ->
      let rec go () =
        match Spsc_ring.try_pop ring with
        | None -> ()
        | Some reply ->
            progress := true;
            (match Hashtbl.find_opt t.pending reply.r_sid with
            | None ->
                (* Already answered by a re-dispatched copy (the original
                   worker finished after being declared dead).  Count and
                   drop — the client saw exactly one response. *)
                t.ledger.duplicates <- t.ledger.duplicates + 1
            | Some p -> (
                Hashtbl.remove t.pending reply.r_sid;
                let now = now_ns () in
                let sojourn = now - reply.r_t0 in
                bump
                  (if sojourn <= t.ctl_latency_ns then t.ledger.good else t.ledger.late)
                  reply.r_class;
                Admission.note_completion t.adm ~sojourn_ns:sojourn;
                Latency.record t.lat_all sojourn;
                Latency.record t.lat_class.(reply.r_class) sojourn;
                if t.spans_on then
                  (* worker push -> loop pop-and-buffer: the reply ring
                     hop plus write buffering, the request's last leg *)
                  Span.record t.sink ~req_id:reply.r_sid ~phase:Span.Reply_flush
                    ~start_ns:reply.r_done
                    ~dur_ns:(max 0 (now - reply.r_done))
                    ~arg:reply.r_cid;
                if t.tail_on then
                  (* [w] is the ring owner, i.e. the worker that
                     executed the request — after a re-dispatch, the
                     replacement rather than the first placement *)
                  Tail.offer t.tail_sink ~now_ns:now ~seq:reply.r_sid
                    ~class_idx:reply.r_class ~worker:w ~sojourn_ns:sojourn
                    ~t0_ns:reply.r_t0 ~quantum_ns:p.p_quantum_ns ~cap:p.p_cap
                    ~inject_depth:p.p_inject;
                match Hashtbl.find_opt t.conns reply.r_cid with
                | Some conn ->
                    Outbuf.add_bytes conn.wb reply.r_buf ~off:0 ~len:reply.r_len
                | None -> t.ledger.orphaned <- t.ledger.orphaned + 1));
            Pool.release t.bufs reply.r_buf;
            go ()
      in
      go ())
    t.reply_rings

let flush_conn t progress conn =
  if not (Outbuf.is_empty conn.wb) then begin
    let buf, off, len = Outbuf.peek conn.wb in
    match Unix.write conn.fd buf off len with
    | n ->
        if n > 0 then progress := true;
        Outbuf.consume conn.wb n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> close_conn t conn
  end

let pending_writes t =
  Hashtbl.fold (fun _ c acc -> acc || not (Outbuf.is_empty c.wb)) t.conns false

(* Every worker done with what it was assigned, and every reply ring
   empty.  A killed worker's count freezes above zero, so after a kill
   the loop polls instead of blocking. *)
let workers_quiet t =
  let quiet = ref true in
  Array.iteri
    (fun w ring ->
      if Spsc_ring.length ring > 0 || Parallel.worker_in_flight t.pool ~worker:w > 0
      then quiet := false)
    t.reply_rings;
  !quiet

(* Block on socket readiness only when the whole pipeline is quiet.
   With work in flight the loop polls, like the paper's dedicated
   dispatcher core — but through a spin-then-park backoff, so on a
   machine where the loop and workers share cores a reply-less poll
   round hands the core to the workers (see {!Tq_runtime.Backoff}). *)
let idle_wait t backoff =
  if workers_quiet t && not (pending_writes t) then begin
    let fds = List.map (fun c -> c.fd) (conn_list t) in
    let fds = if t.listening then t.listen_fd :: fds else fds in
    match Unix.select fds [] [] 0.02 with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  end
  else Tq_runtime.Backoff.once backoff

(* {2 Worker health: heartbeats, death verdicts, re-dispatch}

   Requests stranded on a worker declared dead are re-submitted to
   living workers under their original span id, so the client still
   gets exactly one response (the duplicate filter in [poll_replies]
   absorbs any race with a not-quite-dead original).  A full
   replacement ring leaves the entry in [pending] for the next
   heartbeat round. *)

let redispatch_orphans t =
  if t.ledger.dead_workers > 0 && Parallel.alive_workers t.pool > 0 then begin
    let orphans =
      Hashtbl.fold
        (fun sid p acc ->
          if not (Parallel.worker_alive t.pool ~worker:p.p_worker) then
            (sid, p) :: acc
          else acc)
        t.pending []
    in
    List.iter
      (fun (sid, p) ->
        let w = Parallel.pick t.pool in
        let job =
          make_job t ~sid ~cid:p.p_cid ~class_idx:p.p_class ~t0:p.p_t0
            ~req_id:p.p_req_id p.p_req
        in
        if Parallel.submit_to t.pool ~tag:sid ~class_idx:p.p_class ~worker:w job
        then begin
          p.p_worker <- w;
          t.ledger.redispatched <- t.ledger.redispatched + 1
        end)
      orphans
  end

(* Progress-based liveness: a worker that made no loop pass across a
   whole heartbeat window while holding work is suspect; after
   [missed_heartbeats] consecutive suspect windows it is declared dead
   and its pending requests move.  Idle workers always beat, so quiet
   periods never accumulate misses.  A verdict is not final: a worker
   whose beats advance after it was declared dead was only stalled, and
   rejoins dispatch (a killed domain never beats again).  Requests it
   still holds complete normally; any already re-dispatched elsewhere
   are answered once, by whichever copy finishes first. *)
let heartbeat_check t ~now =
  if t.heartbeat_interval_ns > 0 && now >= t.hb_next_ns then begin
    t.hb_next_ns <- now + t.heartbeat_interval_ns;
    for w = 0 to t.workers - 1 do
      let b = Parallel.beats t.pool ~worker:w in
      if not (Parallel.worker_alive t.pool ~worker:w) then begin
        if b <> t.hb_beats.(w) then Parallel.revive t.pool ~worker:w
      end
      else if b = t.hb_beats.(w) && Parallel.worker_in_flight t.pool ~worker:w > 0
      then begin
        t.hb_missed.(w) <- t.hb_missed.(w) + 1;
        if t.hb_missed.(w) >= t.missed_heartbeats then begin
          ignore (Parallel.mark_dead t.pool ~worker:w : int);
          t.hb_missed.(w) <- 0;
          t.ledger.dead_workers <- t.ledger.dead_workers + 1
        end
      end
      else t.hb_missed.(w) <- 0;
      t.hb_beats.(w) <- b
    done;
    redispatch_orphans t
  end

let serve t =
  (* the latency recorders were created on the thread that built the
     server; the thread running the loop records into them from here on *)
  Latency.adopt t.lat_all;
  Array.iter Latency.adopt t.lat_class;
  let chunk = Bytes.create 65536 in
  let stopping = ref false in
  let stop_deadline = ref infinity in
  let running = ref true in
  let backoff = Tq_runtime.Backoff.create () in
  while !running do
    let progress = ref false in
    let now = now_ns () in
    (match t.tick_hook with Some f -> f ~now_ns:now | None -> ());
    (* the fault schedule above may have just paused the plane; the
       controller honours the pause like everything else *)
    if now >= Atomic.get t.paused_until_ns then controller_tick t ~now;
    if (not !stopping) && Atomic.get t.stop_flag then begin
      (* Graceful drain: no new connections, no new frames; everything
         already dispatched still completes and flushes. *)
      stopping := true;
      stop_deadline := Unix.gettimeofday () +. t.drain_timeout_s;
      stop_listening t
    end;
    if now < Atomic.get t.paused_until_ns then ()
      (* dispatcher outage (fault hook): nothing moves — no accepts,
         no replies, no heartbeat verdicts — exactly like a wedged
         dispatcher thread; workers keep serving their rings *)
    else begin
      heartbeat_check t ~now;
      if not !stopping then begin
        accept_new t progress;
        List.iter (fun c -> read_conn t chunk progress c) (conn_list t)
      end;
      poll_replies t progress;
      List.iter (fun c -> flush_conn t progress c) (conn_list t);
      if !stopping then begin
        let drained = in_flight t = 0 in
        if drained && not (pending_writes t) then running := false
        else if Unix.gettimeofday () > !stop_deadline then begin
          (* Unresponsive clients: finishing dispatched work is still
             unconditional — only their unflushed bytes are abandoned. *)
          Parallel.drain t.pool;
          poll_replies t progress;
          running := false
        end
      end
    end;
    if !progress then Tq_runtime.Backoff.reset backoff
    else if !running then idle_wait t backoff
  done;
  (* Anything still pending after the drain gave up is lost for good
     (dead-worker leftovers whose re-dispatch never landed): stamp it
     so the acceptance ledger closes — accepted = completed + lost +
     dropped + in_flight, with in_flight 0 once the loop exits. *)
  t.ledger.lost <- Hashtbl.length t.pending;
  List.iter (fun c -> close_conn t c) (conn_list t);
  ignore (Parallel.shutdown t.pool : Parallel.stats)
