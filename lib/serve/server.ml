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
   registry, stage profile, tail reservoir, span sink — is
   single-writer plain mutable state.  Each completion computes the
   request's seven stages once, from the pending entry and the worker's
   residency the reply carries.

   This module also owns the pool and apps, the pooled framing buffers,
   the feedback controller (ticked by the loop), and the views of the
   ledger behind [stats], the Stats RPC and the Prometheus exposition.
   Other threads (the HTTP metrics plane, an in-process [stats]) read
   the ledger with word-sized plain loads: never torn, only eventually
   consistent — and exact once [serve] has returned. *)

module Parallel = Tq_runtime.Parallel
module Task_worker = Tq_runtime.Task_worker
module Park = Tq_runtime.Park
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
module Time_unit = Tq_util.Time_unit
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

(* Reply-ring payload: the finished task's residency on its worker (its
   id is the request's span id; its stamps are the worker's half of the
   stage decomposition) and the encoded frame as a pooled buffer plus
   its live length.  The connection, class and dispatch stamps stay in
   the loop's pending entry. *)
type reply = {
  r_res : Task_worker.residency;
  r_buf : bytes;  (* pooled: the loop releases it after blitting *)
  r_len : int;
}

(* The way back from the workers to the loop: per-worker reply rings,
   the slots a finished job leaves its encoded frame in until its slice
   ends, and the doorbell.  Built before the pool, whose finish hook
   publishes through it. *)
type back = {
  rings : reply Spsc_ring.t array;  (* indexed by worker *)
  out_buf : bytes array;  (* [Bytes.empty] when the worker has no frame waiting *)
  out_len : int array;
  space : Park.t array;  (* where a worker waits on its full reply ring *)
  parked : bool Atomic.t;  (* the loop is in, or about to enter, a blocking select *)
  bell_r : Unix.file_descr;  (* the doorbell: workers wake a parked loop *)
  bell_w : Unix.file_descr;
  bell_lock : Mutex.t;  (* orders a ring against the close in [serve] *)
  mutable bell_open : bool;
}

type conn = {
  fd : Unix.file_descr;
  cid : int;
  rb : Reassembly.t;
  wb : Outbuf.t;
  mutable alive : bool;
  mutable dirty : bool;  (* on the loop's list of connections to flush *)
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
   declared dead, and the loop's half of the stage decomposition (parse
   start, dispatch start, ring push).  First reply retires the entry;
   replies that find no entry are duplicates and are dropped with a
   count. *)
type pending = {
  p_cid : int;
  p_req_id : int;
  p_req : Protocol.request;
  p_class : int;
  p_p0 : int;
  p_t0 : int;
  p_t1 : int;
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
  back : back;
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
  mutable stopping : bool;
  conns : (int, conn) Hashtbl.t;
  by_fd : (Unix.file_descr, conn) Hashtbl.t;
  mutable read_fds : Unix.file_descr list;  (* bell, listener, connections *)
  mutable fds_stale : bool;  (* a connection or the listener came or went *)
  mutable dirty_conns : conn array;  (* connections with output, [n_dirty] of them *)
  mutable n_dirty : int;
  mutable progress : bool;  (* this pass moved a byte, a request or a reply *)
  mutable minor_mark : float;  (* this domain's minor words at the loop's last collection *)
  pending : (int, pending) Hashtbl.t;
  ledger : ledger;
  sink : Span.sink;
  profile : Profile.t;  (* every completed request's stages, recorded by the loop *)
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

(* {2 The doorbell}

   The loop parks in one [select] over its sockets and the read end of
   a pipe.  Before it blocks it raises [parked], then looks at every
   reply ring and the stop flag once more; a worker that pushed a
   reply, or a [stop], reads [parked] and writes one byte.  The flag
   and the ring cursors are sequentially consistent atomics, so either
   the loop sees the reply or the pusher sees the flag: no lost
   wake-up.  The compare-and-set lets one byte through per park. *)

let bell = Bytes.make 1 '!'

let ring_bell b =
  if Atomic.get b.parked && Atomic.compare_and_set b.parked true false then begin
    Mutex.lock b.bell_lock;
    (if b.bell_open then
       try ignore (Unix.single_write b.bell_w bell 0 1 : int) with Unix.Unix_error _ -> ());
    Mutex.unlock b.bell_lock
  end

(* The pool's finish hook, on the worker's domain: it runs after the
   finished job's last slice is stamped, so the reply carries a complete
   residency and the loop cannot pop it before the slice that made it
   has ended, and before the job counts as finished, so a drained pool
   has pushed every reply.  A full ring means the loop is awake or
   paused (it parks only once every reply ring is empty), so the worker
   parks until the loop's next pop wakes it. *)
let publish b ~wid res =
  let buf = b.out_buf.(wid) in
  if buf != Bytes.empty then begin
    b.out_buf.(wid) <- Bytes.empty;
    let reply = { r_res = res; r_buf = buf; r_len = b.out_len.(wid) } in
    let ring = b.rings.(wid) in
    if not (Spsc_ring.try_push ring reply) then begin
      let has_space () = Spsc_ring.length ring < Spsc_ring.capacity ring in
      while not (Spsc_ring.try_push ring reply) do
        Park.park b.space.(wid) has_space
      done
    end;
    ring_bell b
  end

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
  let minor_mark = Gc.minor_words () in
  let listen_fd, port = listen ~host:config.host ~port:config.port in
  let worker_regs = Array.init config.workers (fun _ -> Counters.create ()) in
  let bell_r, bell_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock bell_r;
  Unix.set_nonblock bell_w;
  let back =
    {
      rings =
        Array.init config.workers (fun _ ->
            Spsc_ring.create ~capacity:(max 1024 (4 * config.ring_capacity)));
      out_buf = Array.make config.workers Bytes.empty;
      out_len = Array.make config.workers 0;
      space = Array.init config.workers (fun _ -> Park.create ());
      parked = Atomic.make false;
      bell_r;
      bell_w;
      bell_lock = Mutex.create ();
      bell_open = true;
    }
  in
  let pool =
    Parallel.create ~workers:config.workers ~quantum_ns:config.quantum_ns
      ~ring_capacity:config.ring_capacity ~classes:Protocol.class_count ~spans
      ~worker_counters:worker_regs ~on_finish:(publish back)
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

  let bufs = Pool.create ~max_pooled:config.pool_bufs ~buf_bytes:config.pool_buf_bytes () in
  let workers = Parallel.workers pool in
  let latency = Latency.create () in
  let by_class () = Array.make Protocol.class_count 0 in
  let t =
    {
      port;
      pool;
      apps;
      back;
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
      stopping = false;
      conns = Hashtbl.create 64;
      by_fd = Hashtbl.create 64;
      read_fds = [];
      fds_stale = true;
      dirty_conns = [||];
      n_dirty = 0;
      progress = false;
      minor_mark;
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
      profile = Profile.create ();
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
let stop t =
  Atomic.set t.stop_flag true;
  ring_bell t.back
let draining t = Atomic.get t.stop_flag
let parked t = Atomic.get t.back.parked

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

let breakdown t = t.profile

(* {2 Tail forensics views} *)

let outlier_dossiers t ~limit =
  if limit <= 0 then Tail.entries t.tail else Tail.top t.tail ~limit

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
  (* a copy, like [latency t], so each series is consistent in itself *)
  ^ Expo.render_latency ~name:"serve_stage_ns"
      (Latency.merge [ Profile.latency t.profile ])

(* {2 The Stats RPC renderer}

   Called by the loop for a Stats RPC, and by the HTTP plane from its
   own thread.  All inputs are reads safe from any thread. *)

let render_stats t view =
  match view with
  | Protocol.Stats_json -> Ok (snapshot_json t)
  | Protocol.Stats_text -> Ok (prometheus t)
  | Protocol.Stats_control -> (
      match t.ctl with
      | Some c -> Ok (Tq_control.Controller.state_json c)
      | None -> Error "controller off: run the server with --adaptive")
  | Protocol.Stats_breakdown -> Ok (Profile.to_json t.profile)
  | Protocol.Stats_breakdown_text -> Ok (Profile.render t.profile)
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
  Parallel.stall_worker t.pool ~worker ~duration_ns

let kill_worker t ~worker = Parallel.kill_worker t.pool ~worker

let pause_dispatcher t ~duration_ns =
  Atomic.set t.paused_until_ns (Time_unit.now_ns () + duration_ns)

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
    t.fds_stale <- true;
    try Unix.close t.listen_fd with Unix.Unix_error _ -> ()
  end

let close_conn t conn =
  if conn.alive then begin
    conn.alive <- false;
    Hashtbl.remove t.conns conn.cid;
    Hashtbl.remove t.by_fd conn.fd;
    t.fds_stale <- true;
    try Unix.close conn.fd with Unix.Unix_error _ -> ()
  end

let adopt_fd t fd =
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  let cid = t.next_cid in
  t.next_cid <- cid + 1;
  let conn =
    { fd; cid; rb = Reassembly.create (); wb = Outbuf.create (); alive = true;
      dirty = false }
  in
  Hashtbl.replace t.conns cid conn;
  Hashtbl.replace t.by_fd fd conn;
  t.fds_stale <- true;
  t.ledger.connections <- t.ledger.connections + 1;
  Profile.record_accept t.profile;
  if t.spans_on then
    Span.record t.sink ~req_id:(-1) ~phase:Span.Accept ~start_ns:(Time_unit.now_ns ())
      ~dur_ns:0 ~arg:cid

(* A connection with output joins the loop's flush list once; a pass
   flushes only the connections on it, not every connection. *)
let mark_dirty t conn =
  if not conn.dirty then begin
    conn.dirty <- true;
    if t.n_dirty = Array.length t.dirty_conns then begin
      let grown = Array.make (max 16 (2 * t.n_dirty)) conn in
      Array.blit t.dirty_conns 0 grown 0 t.n_dirty;
      t.dirty_conns <- grown
    end;
    t.dirty_conns.(t.n_dirty) <- conn;
    t.n_dirty <- t.n_dirty + 1
  end

(* Dispatcher-side responses (shed verdicts, stats bodies) go through
   the same pooled zero-copy path as worker replies. *)
let add_response t conn resp =
  let len = Protocol.response_frame_len resp in
  let buf = Pool.acquire t.bufs ~len in
  let n = Protocol.encode_response_into buf ~off:0 resp in
  Outbuf.add_bytes conn.wb buf ~off:0 ~len:n;
  mark_dirty t conn;
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
   worker's app, encode into a pooled buffer, and leave the frame in
   that worker's out slots for [publish].  The app and slots are looked
   up from the [wid] the pool passes at execution — the worker the job
   was submitted to — so the closure needs no placement argument and
   each reply ring keeps one producer, its own worker. *)
let make_job t ~req_id req =
  fun ~wid ->
    let resp = App.execute t.apps.(wid) ~req_id req in
    let len = Protocol.response_frame_len resp in
    let buf = Pool.acquire t.bufs ~len in
    t.back.out_len.(wid) <- Protocol.encode_response_into buf ~off:0 resp;
    t.back.out_buf.(wid) <- buf

let shed t conn ~p0 ~class_idx req_id =
  bump t.ledger.shed class_idx;
  let dur_ns = Time_unit.now_ns () - p0 in
  Profile.record_shed t.profile dur_ns;
  if t.spans_on then
    Span.record t.sink ~req_id:(-1) ~phase:Span.Shed ~start_ns:p0 ~dur_ns ~arg:class_idx;
  shed_response t conn req_id

(* [p0] is the parse-start stamp from [parse_frames]: the request's
   first boundary, where its sojourn starts.  With spans on, a
   dispatched request also gets a per-request [Parse] span [p0, t0)
   under its span id, and a shed request a [Shed] span covering
   [p0, decision). *)
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
    let t0 = Time_unit.now_ns () in
    let job = make_job t ~req_id req in
    (* The dispatch stage ends just before the push: once the job is on
       the ring the worker may stamp its pickup before this thread
       reads the clock again. *)
    let t1 = Time_unit.now_ns () in
    Hashtbl.replace t.pending sid
      {
        p_cid = cid;
        p_req_id = req_id;
        p_req = req;
        p_class = class_idx;
        p_p0 = p0;
        p_t0 = t0;
        p_t1 = t1;
        p_worker = w;
        p_quantum_ns = q_ns;
        p_cap = cap;
        p_inject = inj;
      };
    if Parallel.submit_to t.pool ~tag:sid ~class_idx ~worker:w job then begin
      t.next_sid <- sid + 1;
      bump t.ledger.dispatched class_idx;
      if t.spans_on then begin
        Span.record t.sink ~req_id:sid ~phase:Span.Parse ~start_ns:p0
          ~dur_ns:(t0 - p0) ~arg:conn.cid;
        Span.record t.sink ~req_id:sid ~phase:Span.Dispatch ~start_ns:t0
          ~dur_ns:(t1 - t0) ~arg:w
      end
    end
    else begin
      (* the chosen core's ring is full: backpressure, shed at the door *)
      Hashtbl.remove t.pending sid;
      shed t conn ~p0 ~class_idx req_id
    end
  end

let rec parse_frames t conn =
  if conn.alive then
    match Reassembly.next conn.rb with
    | Error _ ->
        t.ledger.protocol_errors <- t.ledger.protocol_errors + 1;
        close_conn t conn
    | Ok None -> ()
    | Ok (Some payload) -> (
        let p0 = Time_unit.now_ns () in
        match Protocol.decode_request payload with
        | Error _ ->
            t.ledger.protocol_errors <- t.ledger.protocol_errors + 1;
            close_conn t conn
        | Ok (req_id, req) ->
            (match req with
            | Protocol.Stats { view } -> serve_stats t conn req_id view
            | _ -> dispatch t conn ~p0 req_id req);
            parse_frames t conn)

(* The loop reads only what its [select] reported ready: one accept
   for a ready listener, one read for a ready connection.  A blind call
   that finds nothing raises [Unix_error EAGAIN], 9 minor words each. *)
let accept_one t =
  match Unix.accept ~cloexec:true t.listen_fd with
  | fd, _ ->
      Unix.set_nonblock fd;
      t.progress <- true;
      adopt_fd t fd
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR | ECONNABORTED), _, _) -> ()

let read_conn t chunk conn =
  match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
  | 0 -> close_conn t conn
  | n ->
      t.progress <- true;
      Reassembly.add conn.rb chunk n;
      parse_frames t conn
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> close_conn t conn

(* The request's stages are computed once, here: the pending entry
   holds the loop's boundaries, the reply the worker's, and [now] is
   the last.  The breakdown, /metrics and the tail reservoir all read
   what [Profile.record] computed. *)
let complete t ~worker reply =
  let res = reply.r_res in
  let sid = res.Task_worker.task.Task_worker.task_id in
  match Hashtbl.find_opt t.pending sid with
  | None ->
      (* Already answered by a re-dispatched copy (the original worker
         finished after being declared dead).  Count and drop — the
         client saw exactly one response. *)
      t.ledger.duplicates <- t.ledger.duplicates + 1
  | Some p -> (
      Hashtbl.remove t.pending sid;
      let now = Time_unit.now_ns () in
      let sojourn = now - p.p_p0 in
      bump (if sojourn <= t.ctl_latency_ns then t.ledger.good else t.ledger.late) p.p_class;
      Admission.note_completion t.adm ~sojourn_ns:sojourn;
      Latency.record t.lat_all sojourn;
      Latency.record t.lat_class.(p.p_class) sojourn;
      Profile.record t.profile ~p0:p.p_p0 ~t0:p.p_t0 ~t1:p.p_t1 ~pickup:res.pickup_ns
        ~first:res.first_ns ~run_ns:res.run_ns ~last_end:res.last_end_ns ~pop:now;
      if t.spans_on then
        (* last quantum end -> loop pop-and-buffer: the reply ring hop
           plus write buffering, the request's last leg *)
        Span.record t.sink ~req_id:sid ~phase:Span.Reply_flush
          ~start_ns:res.last_end_ns ~dur_ns:(now - res.last_end_ns) ~arg:p.p_cid;
      (* [worker] is the ring owner, i.e. the worker that executed the
         request — after a re-dispatch, the replacement rather than the
         first placement *)
      Tail.offer t.tail ~now_ns:now ~seq:sid ~class_idx:p.p_class ~worker
        ~sojourn_ns:sojourn ~quantum_ns:p.p_quantum_ns ~cap:p.p_cap
        ~inject_depth:p.p_inject ~stages:(Profile.last t.profile) ~quanta:res.quanta
        ~stalls:res.stalls ~gc_pause_ns:res.gc_pause_ns;
      match Hashtbl.find t.conns p.p_cid with
      | conn ->
          Outbuf.add_bytes conn.wb reply.r_buf ~off:0 ~len:reply.r_len;
          mark_dirty t conn
      | exception Not_found -> t.ledger.orphaned <- t.ledger.orphaned + 1)

(* Each pop may free the slot a worker parked on a full ring waits for. *)
let poll_replies t =
  for w = 0 to Array.length t.back.rings - 1 do
    let ring = t.back.rings.(w) in
    let more = ref true in
    while !more do
      match Spsc_ring.try_pop ring with
      | None -> more := false
      | Some reply ->
          t.progress <- true;
          complete t ~worker:w reply;
          Pool.release t.bufs reply.r_buf
    done;
    Park.wake t.back.space.(w)
  done

let flush_conn t conn =
  let buf, off, len = Outbuf.peek conn.wb in
  match Unix.write conn.fd buf off len with
  | n ->
      if n > 0 then t.progress <- true;
      Outbuf.consume conn.wb n
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> close_conn t conn

(* Flush the connections with output; the ones a full socket buffer
   leaves with output stay on the list, and the park waits for them to
   become writable. *)
let flush_dirty t =
  let kept = ref 0 in
  for i = 0 to t.n_dirty - 1 do
    let c = t.dirty_conns.(i) in
    if c.alive && not (Outbuf.is_empty c.wb) then flush_conn t c;
    if c.alive && not (Outbuf.is_empty c.wb) then begin
      t.dirty_conns.(!kept) <- c;
      incr kept
    end
    else c.dirty <- false
  done;
  t.n_dirty <- !kept

(* {2 The park}

   One [select] per pass, over the doorbell, the listener and every
   connection, plus the connections with output still pending.  A pass
   that moved anything polls (timeout 0); a pass that moved nothing
   parks until a socket is ready, a worker rings, [stop] rings, or the
   loop's next timer is due: heartbeat, controller tick, tick hook,
   pause end or drain deadline. *)

(* The loop's share of its domain's minor heap, in words: at a park,
   a loop that has allocated this much since its last collection (or
   since [create] began) collects.  A domain keeps resident every page
   of its minor heap it has touched, and allocation restarts at the top
   after each collection, so the loop touches about this much of its
   heap however large the heap is, and the workers fill their own heaps
   no further between collections.  The heap is not resized: [Gc.set]
   of the minor heap while other domains ran crashed OCaml 5.1.
   DESIGN.md ("Live serving") has the measurement behind the size. *)
let minor_heap_words = 65_536

(* How often an installed tick hook is run while the loop is parked. *)
let tick_hook_period_ns = 1_000_000

let bound_minor_heap t =
  if Gc.minor_words () -. t.minor_mark >= float_of_int minor_heap_words then begin
    Gc.minor ();
    t.minor_mark <- Gc.minor_words ()
  end

let replies_waiting t =
  let waiting = ref false in
  for w = 0 to Array.length t.back.rings - 1 do
    if Spsc_ring.length t.back.rings.(w) > 0 then waiting := true
  done;
  !waiting

(* A request whose reply has not been popped, on a worker not declared
   dead: what the drain must still wait for. *)
let held_by_living_worker t =
  Hashtbl.fold
    (fun _ p held -> held || Parallel.worker_alive t.pool ~worker:p.p_worker)
    t.pending false

let next_timer_ns t ~now ~paused_until ~stop_deadline_ns =
  let tick =
    match t.tick_hook with Some _ -> now + tick_hook_period_ns | None -> max_int
  in
  if now < paused_until then Int.min tick paused_until
  else begin
    let d = ref (if stop_deadline_ns > now then Int.min tick stop_deadline_ns else tick) in
    if t.heartbeat_interval_ns > 0 then d := Int.min !d t.hb_next_ns;
    (match t.ctl with Some _ -> d := Int.min !d t.ctl_next_ns | None -> ());
    !d
  end

let read_fds t =
  if t.stopping then [ t.back.bell_r ]
  else begin
    if t.fds_stale then begin
      t.fds_stale <- false;
      let fds = Hashtbl.fold (fun fd _ acc -> fd :: acc) t.by_fd [] in
      t.read_fds <- t.back.bell_r :: (if t.listening then t.listen_fd :: fds else fds)
    end;
    t.read_fds
  end

let write_fds t =
  let fds = ref [] in
  for i = 0 to t.n_dirty - 1 do
    fds := t.dirty_conns.(i).fd :: !fds
  done;
  !fds

let on_ready t chunk fd =
  if fd = t.back.bell_r then
    (* empty the pipe: one byte per ring, a few at most *)
    match Unix.read t.back.bell_r chunk 0 64 with
    | _ -> ()
    | exception Unix.Unix_error _ -> ()
  else if t.listening && fd = t.listen_fd then accept_one t
  else
    match Hashtbl.find t.by_fd fd with
    | conn -> read_conn t chunk conn
    | exception Not_found -> ()

let rec on_ready_all t chunk = function
  | [] -> ()
  | fd :: rest ->
      on_ready t chunk fd;
      on_ready_all t chunk rest

(* [io] is false during a dispatcher pause: then only the doorbell is
   watched, so a [stop] still wakes the loop and nothing else moves. *)
let await t chunk ~now ~deadline_ns ~io =
  let block = not t.progress in
  t.progress <- false;
  if block then begin
    bound_minor_heap t;
    Atomic.set t.back.parked true
  end;
  let timeout =
    if (not block)
       || (io && replies_waiting t)
       || (Atomic.get t.stop_flag && not t.stopping)
    then 0.0
    else if deadline_ns = max_int then -1.0
    else Float.of_int (Int.max 0 (deadline_ns - now)) *. 1e-9
  in
  let reads = if io then read_fds t else [ t.back.bell_r ] in
  let writes = if io && t.n_dirty > 0 then write_fds t else [] in
  match Unix.select reads writes [] timeout with
  | ready, _, _ ->
      Atomic.set t.back.parked false;
      on_ready_all t chunk ready
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> Atomic.set t.back.parked false

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
        let job = make_job t ~req_id:p.p_req_id p.p_req in
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
   and its pending requests move.  An idle worker parks and stops
   beating, but it holds no work, so quiet periods never accumulate
   misses.  A verdict is not final: a worker
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
  List.iter (fun (_, r) -> Latency.adopt r) (Latency.to_alist (Profile.latency t.profile));
  let chunk = Bytes.create 65536 in
  let stop_deadline_ns = ref max_int in
  let running = ref true in
  while !running do
    let now = Time_unit.now_ns () in
    (match t.tick_hook with Some f -> f ~now_ns:now | None -> ());
    (* the fault schedule above may have just paused the plane; the
       controller honours the pause like everything else *)
    let paused_until = Atomic.get t.paused_until_ns in
    if now >= paused_until then controller_tick t ~now;
    if (not t.stopping) && Atomic.get t.stop_flag then begin
      (* Graceful drain: no new connections, no new frames; everything
         already dispatched still completes and flushes. *)
      t.stopping <- true;
      stop_deadline_ns := now + int_of_float (t.drain_timeout_s *. 1e9);
      stop_listening t
    end;
    let io = now >= paused_until in
    if io then begin
      (* while paused (fault hook) nothing moves — no accepts, no
         replies, no heartbeat verdicts — exactly like a wedged
         dispatcher thread; workers keep serving their rings *)
      heartbeat_check t ~now;
      poll_replies t;
      flush_dirty t;
      if t.stopping then
        if in_flight t = 0 && t.n_dirty = 0 then running := false
        else if now > !stop_deadline_ns && not (held_by_living_worker t) then
          (* Unresponsive clients: finishing dispatched work is still
             unconditional — only their unflushed bytes are abandoned.
             The loop keeps popping replies until then, so no worker
             waits on a full reply ring. *)
          running := false
    end;
    if !running then
      await t chunk ~now ~io
        ~deadline_ns:
          (next_timer_ns t ~now ~paused_until ~stop_deadline_ns:!stop_deadline_ns)
  done;
  (* Anything still pending after the drain gave up is lost for good
     (dead-worker leftovers whose re-dispatch never landed): stamp it
     so the acceptance ledger closes — accepted = completed + lost +
     dropped + in_flight, with in_flight 0 once the loop exits. *)
  t.ledger.lost <- Hashtbl.length t.pending;
  List.iter (close_conn t) (Hashtbl.fold (fun _ c acc -> c :: acc) t.conns []);
  ignore (Parallel.shutdown t.pool : Parallel.stats);
  Mutex.lock t.back.bell_lock;
  t.back.bell_open <- false;
  (try
     Unix.close t.back.bell_r;
     Unix.close t.back.bell_w
   with Unix.Unix_error _ -> ());
  Mutex.unlock t.back.bell_lock
