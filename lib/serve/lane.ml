(* The dispatcher lane: TQ's first level over real sockets.

   One loop accepts on the listening socket, owns every connection,
   steers each parsed request to a worker (KV by key hash, everything
   else JSQ over every living worker), polls every worker's reply ring
   and flushes responses back.  The lane is the only producer on every
   inject ring and the only consumer of every reply ring, so the SPSC
   contract holds with zero coordination, and every lane structure —
   connection table, pending table, ledger, latency registry, span sink
   — is single-writer plain mutable state.

   Other threads (the HTTP metrics plane, an in-process [Server.stats])
   read the ledger with word-sized plain loads: never torn, only
   eventually consistent — and exact once [run] has returned. *)

module Parallel = Tq_runtime.Parallel
module Spsc_ring = Tq_runtime.Spsc_ring
module Admission = Tq_sched.Admission
module Span = Tq_obs.Span
module Tail = Tq_obs.Tail
module Latency = Tq_obs.Latency
module Reassembly = Protocol.Reassembly
module Outbuf = Protocol.Outbuf

(* Reply-ring payload: connection, span/request id, request class,
   dispatch stamp, worker-side completion stamp (0 when spans are off),
   and the encoded frame as a pooled buffer plus its live length. *)
type reply = {
  r_cid : int;
  r_sid : int;
  r_class : int;
  r_t0 : int;
  r_done : int;
  r_buf : bytes;  (* pooled: the lane releases it after blitting *)
  r_len : int;
}

type shared = {
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
}

type conn = {
  fd : Unix.file_descr;
  cid : int;
  rb : Reassembly.t;
  wb : Outbuf.t;
  mutable alive : bool;
}

(* The lane's only per-request record: each event updates exactly one
   cell.  A completion lands in [good] or [late] (against the
   controller's latency objective), so [completed] is their sum and
   has no cell of its own.  Nothing derived is stored: [parsed] is
   [dispatched + shed] and [in_flight] is
   [dispatched - completed - lost - dropped], both computed by the
   reader from the loads it reports, so the two identities hold
   exactly even in a render racing this lane.  [lost] is stamped once
   at lane exit (requests still pending after the drain deadline —
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
  sh : shared;
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
  mutable render_stats : (Protocol.stats_view -> (string, string) result) option;
  mutable tick_hook : (now_ns:int -> unit) option;
  mutable next_cid : int;
  mutable next_sid : int;
}

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

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

let create sh ~admission =
  let workers = Parallel.workers sh.pool in
  let latency = Latency.create () in
  let by_class () = Array.make Protocol.class_count 0 in
  {
    sh;
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
    sink = Span.register sh.spans (Span.Dispatcher 0);
    tail_sink = Tail.register sh.tail ~lane:0;
    latency;
    lat_all = Latency.recorder latency "all";
    lat_class =
      Array.init Protocol.class_count (fun i ->
          Latency.recorder latency (Protocol.class_name i));
    adm = Admission.create admission;
    hb_beats = Array.make workers (-1);
    hb_missed = Array.make workers 0;
    hb_next_ns = 0;
    render_stats = None;
    tick_hook = None;
    next_cid = 0;
    next_sid = 0;
  }

let ledger t = t.ledger
let latency t = t.latency
let admission t = t.adm
let open_conns t = Hashtbl.length t.conns
let set_stats_renderer t f = t.render_stats <- Some f
let set_tick t f = t.tick_hook <- Some f
let total = Array.fold_left ( + ) 0
let completed l = total l.good + total l.late
let in_flight t = total t.ledger.dispatched - completed t.ledger
let span_dropped t = Span.sink_dropped t.sink
let bump cells i = cells.(i) <- cells.(i) + 1

(* {2 Connection lifecycle} *)

let stop_listening t =
  if t.listening then begin
    t.listening <- false;
    try Unix.close t.sh.listen_fd with Unix.Unix_error _ -> ()
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
  if t.sh.spans_on then
    Span.record t.sink ~req_id:(-1) ~phase:Span.Accept ~start_ns:(now_ns ())
      ~dur_ns:0 ~arg:cid

(* Dispatcher-side responses (shed verdicts, stats bodies) go through
   the same pooled zero-copy path as worker replies. *)
let add_response t conn resp =
  let len = Protocol.response_frame_len resp in
  let buf = Pool.acquire t.sh.bufs ~len in
  let n = Protocol.encode_response_into buf ~off:0 resp in
  Outbuf.add_bytes conn.wb buf ~off:0 ~len:n;
  Pool.release t.sh.bufs buf

let shed_response t conn req_id =
  add_response t conn { Protocol.req_id; status = Protocol.Shed; body = "" }

(* Stats requests are introspection, answered synchronously on the
   lane: they must work during overload (when admission sheds request
   work) and must not perturb the accounting they report.  The
   rendering itself is a server-level closure. *)
let serve_stats t conn req_id view =
  t.ledger.stats_served <- t.ledger.stats_served + 1;
  let body =
    match t.render_stats with
    | Some render -> render view
    | None -> Error "stats renderer not wired"
  in
  let resp =
    match body with
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
  let apps = t.sh.apps in
  let rings = t.sh.reply_rings in
  let bufs = t.sh.bufs in
  let spans_on = t.sh.spans_on in
  fun ~wid ->
    let app = apps.(wid) in
    let ring = rings.(wid) in
    let resp = App.execute app ~now_ns:(now_ns ()) ~req_id req in
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
  if t.sh.spans_on then
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
  let pool_load = Parallel.in_flight t.sh.pool in
  let admitted =
    Parallel.alive_workers t.sh.pool > 0
    && pool_load < t.sh.rx_depth
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
          if Parallel.worker_alive t.sh.pool ~worker:w then w else Parallel.pick t.sh.pool
      | None -> Parallel.pick t.sh.pool
    in
    let sid = t.next_sid in
    let cid = conn.cid in
    (* Tail forensics samples the controller and queue state the
       request saw at dispatch — quantum in force for its class, the
       admission cap, and the chosen worker's inject-ring depth — so a
       slow request's dossier can say what the plane looked like when
       it was placed.  Guarded: the disabled path reads no state. *)
    let q_ns, cap, inj =
      if t.sh.tail_on then
        ( Parallel.quantum_ns t.sh.pool ~class_idx (),
          (match Admission.policy t.adm with
          | Admission.Queue_limit { max_in_system } -> max_in_system
          | Admission.Accept_all | Admission.Ewma_sojourn _ -> -1),
          Parallel.ring_depth t.sh.pool ~worker:w )
      else (0, -1, 0)
    in
    let t0 = now_ns () in
    let job = make_job t ~sid ~cid ~class_idx ~t0 ~req_id req in
    if Parallel.submit_to t.sh.pool ~tag:sid ~class_idx ~worker:w job then begin
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
      if t.sh.spans_on then begin
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
        let p0 = if t.sh.spans_on then now_ns () else 0 in
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
  match Unix.accept ~cloexec:true t.sh.listen_fd with
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
                  (if sojourn <= t.sh.ctl_latency_ns then t.ledger.good else t.ledger.late)
                  reply.r_class;
                Admission.note_completion t.adm ~sojourn_ns:sojourn;
                Latency.record t.lat_all sojourn;
                Latency.record t.lat_class.(reply.r_class) sojourn;
                if t.sh.spans_on then
                  (* worker push -> lane pop-and-buffer: the reply ring
                     hop plus write buffering, the request's last leg *)
                  Span.record t.sink ~req_id:reply.r_sid ~phase:Span.Reply_flush
                    ~start_ns:reply.r_done
                    ~dur_ns:(max 0 (now - reply.r_done))
                    ~arg:reply.r_cid;
                if t.sh.tail_on then
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
            Pool.release t.sh.bufs reply.r_buf;
            go ()
      in
      go ())
    t.sh.reply_rings

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
   the lane polls instead of blocking. *)
let workers_quiet t =
  let quiet = ref true in
  Array.iteri
    (fun w ring ->
      if Spsc_ring.length ring > 0 || Parallel.worker_in_flight t.sh.pool ~worker:w > 0
      then quiet := false)
    t.sh.reply_rings;
  !quiet

(* Block on socket readiness only when the whole pipeline is quiet.
   With work in flight the lane polls, like the paper's dedicated
   dispatcher core — but through a spin-then-park backoff, so on a
   machine where the lane and workers share cores a reply-less poll
   round hands the core to the workers (see {!Tq_runtime.Backoff}). *)
let idle_wait t backoff =
  if workers_quiet t && not (pending_writes t) then begin
    let fds = List.map (fun c -> c.fd) (conn_list t) in
    let fds = if t.listening then t.sh.listen_fd :: fds else fds in
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
  if t.ledger.dead_workers > 0 && Parallel.alive_workers t.sh.pool > 0 then begin
    let orphans =
      Hashtbl.fold
        (fun sid p acc ->
          if not (Parallel.worker_alive t.sh.pool ~worker:p.p_worker) then
            (sid, p) :: acc
          else acc)
        t.pending []
    in
    List.iter
      (fun (sid, p) ->
        let w = Parallel.pick t.sh.pool in
        let job =
          make_job t ~sid ~cid:p.p_cid ~class_idx:p.p_class ~t0:p.p_t0
            ~req_id:p.p_req_id p.p_req
        in
        if Parallel.submit_to t.sh.pool ~tag:sid ~class_idx:p.p_class ~worker:w job
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
  if t.sh.heartbeat_interval_ns > 0 && now >= t.hb_next_ns then begin
    t.hb_next_ns <- now + t.sh.heartbeat_interval_ns;
    for w = 0 to t.workers - 1 do
      let b = Parallel.beats t.sh.pool ~worker:w in
      if not (Parallel.worker_alive t.sh.pool ~worker:w) then begin
        if b <> t.hb_beats.(w) then Parallel.revive t.sh.pool ~worker:w
      end
      else if b = t.hb_beats.(w) && Parallel.worker_in_flight t.sh.pool ~worker:w > 0
      then begin
        t.hb_missed.(w) <- t.hb_missed.(w) + 1;
        if t.hb_missed.(w) >= t.sh.missed_heartbeats then begin
          ignore (Parallel.mark_dead t.sh.pool ~worker:w : int);
          t.hb_missed.(w) <- 0;
          t.ledger.dead_workers <- t.ledger.dead_workers + 1
        end
      end
      else t.hb_missed.(w) <- 0;
      t.hb_beats.(w) <- b
    done;
    redispatch_orphans t
  end

(* {2 The lane loop} *)

let run t =
  (* the latency recorders were created on the thread that built the
     server; the thread running the lane records into them from here on *)
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
    if (not !stopping) && Atomic.get t.sh.stop_flag then begin
      (* Graceful drain: no new connections, no new frames; everything
         already dispatched still completes and flushes. *)
      stopping := true;
      stop_deadline := Unix.gettimeofday () +. t.sh.drain_timeout_s;
      stop_listening t
    end;
    if now < Atomic.get t.sh.paused_until_ns then ()
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
          Parallel.drain t.sh.pool;
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
     dropped + in_flight, with in_flight 0 once the lane exits. *)
  t.ledger.lost <- Hashtbl.length t.pending;
  List.iter (fun c -> close_conn t c) (conn_list t)
