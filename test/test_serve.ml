(* Tests for tq_serve: the wire codec, stream reassembly, and the live
   loopback server — a mixed-class smoke run and a drain-under-load
   shutdown, both against a real TCP socket. *)

module Protocol = Tq_serve.Protocol
module Server = Tq_serve.Server
module Client = Tq_serve.Client
module App = Tq_serve.App

(* Seconds on the live monotonic clock, for the tests' deadlines. *)
let now_s () = Tq_util.Time_unit.(to_s (now_ns ()))

let check = Alcotest.check

(* --- codec --- *)

let roundtrip req =
  let b = Buffer.create 64 in
  Protocol.encode_request b ~req_id:99 req;
  let frame = Buffer.to_bytes b in
  let rb = Protocol.Reassembly.create () in
  Protocol.Reassembly.add rb frame (Bytes.length frame);
  match Protocol.Reassembly.next rb with
  | Ok (Some payload) -> (
      match Protocol.decode_request payload with
      | Ok (id, req') ->
          check Alcotest.int "req_id" 99 id;
          req'
      | Error msg -> Alcotest.failf "decode: %s" msg)
  | Ok None -> Alcotest.fail "frame not reassembled"
  | Error msg -> Alcotest.failf "reassembly: %s" msg

let test_codec_roundtrip () =
  let reqs =
    [
      Protocol.Echo { spin_ns = 12_345; payload = "hello, \x00 binary" };
      Protocol.Echo { spin_ns = 0; payload = "" };
      Protocol.Kv_get { key = App.kv_key 7 };
      Protocol.Kv_set { key = "k"; value = String.make 1000 'v' };
      Protocol.Tpcc { kind = Tq_tpcc.Transactions.New_order };
      Protocol.Tpcc { kind = Tq_tpcc.Transactions.Stock_level };
    ]
  in
  List.iter (fun req -> check Alcotest.bool "request survives" true (roundtrip req = req)) reqs;
  List.iter
    (fun resp ->
      let frame = Protocol.response_frame resp in
      let rb = Protocol.Reassembly.create () in
      Protocol.Reassembly.add rb frame (Bytes.length frame);
      match Protocol.Reassembly.next rb with
      | Ok (Some payload) ->
          check Alcotest.bool "response survives" true
            (Protocol.decode_response payload = Ok resp)
      | _ -> Alcotest.fail "response frame lost")
    [
      { Protocol.req_id = 3; status = Protocol.Ok; body = "out" };
      { Protocol.req_id = 4; status = Protocol.Shed; body = "" };
      (* an [Error] response's message rides in the wire body *)
      { Protocol.req_id = 5; status = Protocol.Error "boom"; body = "" };
    ]

let test_reassembly_byte_at_a_time () =
  let b = Buffer.create 256 in
  let n = 20 in
  for i = 0 to n - 1 do
    Protocol.encode_request b ~req_id:i
      (Protocol.Echo { spin_ns = i; payload = String.make (i * 3) 'x' })
  done;
  let stream = Buffer.to_bytes b in
  let rb = Protocol.Reassembly.create () in
  let got = ref 0 in
  let byte = Bytes.create 1 in
  Bytes.iter
    (fun c ->
      Bytes.set byte 0 c;
      Protocol.Reassembly.add rb byte 1;
      let rec drain () =
        match Protocol.Reassembly.next rb with
        | Ok (Some payload) ->
            (match Protocol.decode_request payload with
            | Ok (id, Protocol.Echo { spin_ns; payload }) ->
                check Alcotest.int "ids in order" !got id;
                check Alcotest.int "spin" !got spin_ns;
                check Alcotest.int "payload length" (!got * 3) (String.length payload)
            | _ -> Alcotest.fail "wrong request");
            incr got;
            drain ()
        | Ok None -> ()
        | Error msg -> Alcotest.failf "reassembly: %s" msg
      in
      drain ())
    stream;
  check Alcotest.int "all frames recovered" n !got;
  check Alcotest.int "nothing left over" 0 (Protocol.Reassembly.pending_bytes rb)

let test_reassembly_rejects_oversized () =
  let rb = Protocol.Reassembly.create () in
  let evil = Bytes.create 4 in
  Bytes.set_int32_be evil 0 (Int32.of_int (Protocol.max_frame_bytes + 1));
  Protocol.Reassembly.add rb evil 4;
  match Protocol.Reassembly.next rb with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversized length prefix must be rejected"

(* --- live loopback server --- *)

let with_server config f =
  let srv = Server.create config in
  let th = Thread.create (fun () -> Server.serve srv) () in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Thread.join th)
    (fun () -> f srv)

let base_config =
  {
    Server.default_config with
    port = 0 (* ephemeral: tests never collide on a port *);
    workers = 2;
    rx_depth = 65536;
    kv_keys = 64;
  }

let nth_request i =
  match i mod 4 with
  | 0 -> Protocol.Echo { spin_ns = 500; payload = Printf.sprintf "p%d" i }
  | 1 -> Protocol.Kv_set { key = App.kv_key (i mod 64); value = Printf.sprintf "w%d" i }
  | 2 -> Protocol.Kv_get { key = App.kv_key (i mod 64) }
  | _ -> Protocol.Tpcc { kind = Tq_tpcc.Transactions.Payment }

let test_loopback_smoke () =
  with_server base_config (fun srv ->
      let n = 3_000 and window = 64 in
      let client = Client.connect ~port:(Server.port srv) () in
      let answered = Array.make n false in
      let t0 = now_s () in
      let recv_one () =
        let resp = Client.recv client in
        let id = resp.Protocol.req_id in
        check Alcotest.bool "known id" true (id >= 0 && id < n);
        check Alcotest.bool "answered once" false answered.(id);
        answered.(id) <- true;
        (match resp.Protocol.status with
        | Protocol.Ok -> ()
        | Protocol.Shed -> Alcotest.fail "shed under tiny load"
        | Protocol.Error msg -> Alcotest.failf "handler error: %s" msg);
        match (nth_request id, resp.Protocol.body) with
        | Protocol.Echo { payload; _ }, body ->
            check Alcotest.string "echo echoes" payload body
        | Protocol.Kv_set _, body -> check Alcotest.string "set acks" "+" body
        | Protocol.Kv_get _, body ->
            check Alcotest.bool "get hits a prepopulated/written key" true
              (String.length body > 0 && body.[0] = '+')
        | Protocol.Tpcc _, body ->
            check Alcotest.bool "tpcc reports an outcome" true (String.length body > 0)
        | Protocol.Stats _, _ -> Alcotest.fail "smoke mix sends no Stats requests"
      in
      let inflight = ref 0 in
      for i = 0 to n - 1 do
        Client.send client ~req_id:i (nth_request i);
        incr inflight;
        if !inflight >= window then begin
          recv_one ();
          decr inflight
        end
      done;
      while !inflight > 0 do
        recv_one ();
        decr inflight
      done;
      let elapsed = now_s () -. t0 in
      Client.close client;
      check Alcotest.bool "every request answered" true (Array.for_all Fun.id answered);
      (* sanity, not a benchmark: thousands of mixed requests should take
         seconds at worst even on a single shared core *)
      check Alcotest.bool "sane latency" true (elapsed /. float_of_int n < 0.01);
      let s = Server.stats srv in
      check Alcotest.int "parsed all" n s.Server.parsed;
      check Alcotest.int "dispatched all" n s.Server.dispatched;
      check Alcotest.int "completed all" n s.Server.completed;
      check Alcotest.int "nothing shed" 0 s.Server.shed;
      check Alcotest.int "no protocol errors" 0 s.Server.protocol_errors;
      check Alcotest.int "no orphans" 0 s.Server.orphaned)


let test_drain_under_load () =
  let srv = Server.create { base_config with ring_capacity = 4096 } in
  let th = Thread.create (fun () -> Server.serve srv) () in
  let n = 1_000 in
  let client = Client.connect ~port:(Server.port srv) () in
  for i = 0 to n - 1 do
    Client.send client ~req_id:i (Protocol.Echo { spin_ns = 20_000; payload = "" })
  done;
  (* wait for the server to take ownership of every request... *)
  let deadline = now_s () +. 30.0 in
  while (Server.stats srv).Server.parsed < n && now_s () < deadline do
    Unix.sleepf 0.001
  done;
  check Alcotest.int "server accepted everything" n (Server.stats srv).Server.parsed;
  (* ...then pull the plug mid-flight: a graceful drain must still
     answer every single one *)
  Server.stop srv;
  let ok = ref 0 and shed = ref 0 and got = ref 0 in
  (try
     while !got < n do
       let resp = Client.recv client in
       (match resp.Protocol.status with
       | Protocol.Ok -> incr ok
       | Protocol.Shed -> incr shed
       | Protocol.Error msg -> Alcotest.failf "handler error: %s" msg);
       incr got
     done
   with End_of_file -> ());
  Thread.join th;
  Client.close client;
  let s = Server.stats srv in
  check Alcotest.int "every parsed request answered" n !got;
  check Alcotest.int "dispatched + shed = parsed" s.Server.parsed
    (s.Server.dispatched + s.Server.shed);
  check Alcotest.int "zero in-flight lost" s.Server.dispatched s.Server.completed;
  check Alcotest.int "client saw the completions" s.Server.completed !ok;
  check Alcotest.int "client saw the sheds" s.Server.shed !shed

(* --- the Stats RPC and live observability --- *)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let run_batch client n =
  for i = 0 to n - 1 do
    Client.send client ~req_id:i (nth_request i)
  done;
  for _ = 1 to n do
    ignore (Client.recv client)
  done

(* Each identity [ledger_violations] checks, broken once on a
   hand-built record, is named; a balanced record names none. *)
let test_ledger_violations () =
  let ok =
    { Server.connections = 1; parsed = 10; dispatched = 7; completed = 5; shed = 3;
      lost = 1; dropped = 0; in_flight = 1; stats_served = 2; protocol_errors = 0;
      orphaned = 0; duplicates = 0; redispatched = 1; dead_workers = 1 }
  in
  check Alcotest.(list string) "balanced ledger" [] (Server.ledger_violations ok);
  let names_only needle s =
    match Server.ledger_violations s with
    | [ msg ] -> check Alcotest.bool needle true (contains msg needle)
    | l -> Alcotest.failf "expected one violation naming %s, got [%s]" needle
             (String.concat "; " l)
  in
  names_only "parsed = dispatched + shed" { ok with parsed = 11 };
  names_only "parsed = dispatched + shed" { ok with shed = 2 };
  names_only "accepted = completed + lost + dropped + in_flight" { ok with in_flight = 0 };
  names_only "accepted = completed + lost + dropped + in_flight" { ok with dropped = 1 };
  check Alcotest.int "both broken, both named" 2
    (List.length (Server.ledger_violations { ok with dispatched = 8 }))

(* The drain summary [tq_serve --stats-out] writes is [snapshot_json]
   once the lane has returned.  Benchmark harnesses and CI read these
   keys from it (the nested ones also from the live Stats RPC, the same
   renderer); a missing one fails their run. *)
let test_drain_file_contract () =
  let spans = Tq_obs.Span.create ~capacity_per_sink:4096 () in
  let srv = Server.create ~spans base_config in
  let th = Thread.create (fun () -> Server.serve srv) () in
  let client = Client.connect ~port:(Server.port srv) () in
  run_batch client 100;
  Client.close client;
  Server.stop srv;
  Thread.join th;
  let json =
    match Tq_util.Json.of_string (Server.snapshot_json srv) with
    | Ok j -> j
    | Error e -> Alcotest.failf "drain summary does not parse: %s" e
  in
  let number path =
    let at = List.fold_left (fun v k -> Option.bind v (Tq_util.Json.member k)) in
    match Option.bind (at (Some json) (String.split_on_char '.' path)) Tq_util.Json.number_opt with
    | Some f -> int_of_float f
    | None -> Alcotest.failf "drain summary has no number at %s" path
  in
  List.iter
    (fun (path, want) -> check Alcotest.int path want (number path))
    [ ("parsed", 100); ("dispatched", 100); ("completed", 100); ("runtime.completions", 100);
      ("shed", 0); ("lost", 0); ("dropped", 0); ("protocol_errors", 0);
      ("dead_workers", 0); ("redispatched", 0); ("spans.dropped", 0) ];
  List.iter
    (fun path -> ignore (number path : int))
    [ "runtime.quanta"; "runtime.yields"; "runtime.stalls"; "io_plane.pool.hits";
      "io_plane.pool.misses" ]

let test_stats_rpc () =
  with_server base_config (fun srv ->
      let n = 200 in
      let client = Client.connect ~port:(Server.port srv) () in
      run_batch client n;
      (* JSON view: accurate accounting, not counted in parsed *)
      let body = Client.stats client in
      List.iter
        (fun needle ->
          check Alcotest.bool (Printf.sprintf "json has %s" needle) true
            (contains body needle))
        [
          Printf.sprintf "\"parsed\": %d" n;
          Printf.sprintf "\"dispatched\": %d" n;
          Printf.sprintf "\"completed\": %d" n;
          "\"shed\": 0";
          "\"in_flight\": 0";
          "\"per_class\"";
          "\"echo\"";
          "\"runtime\"";
          "\"latency\"";
        ];
      (* the prometheus view renders the same counters as text *)
      let text = Client.stats ~view:Protocol.Stats_text client in
      List.iter
        (fun needle ->
          check Alcotest.bool (Printf.sprintf "text has %s" needle) true
            (contains text needle))
        [
          Printf.sprintf "tq_serve_parsed_total{role=\"dispatcher\"} %d\n" n;
          "# TYPE tq_serve_parsed_total counter";
          "tq_runtime_quanta_total{role=\"worker\",worker=\"0\"}";
          "# TYPE tq_serve_latency_ns histogram";
          "# TYPE tq_serve_latency_ns_quantiles summary";
          "quantile=\"0.99\"";
        ];
      check Alcotest.(list string) "exposition lints clean" [] (Tq_obs.Expo.lint text);
      (* stats answers ride outside the work accounting *)
      let s = Server.stats srv in
      check Alcotest.int "stats RPCs counted apart" 2 s.Server.stats_served;
      check Alcotest.int "parsed untouched by stats" n s.Server.parsed;
      check Alcotest.int "parsed = dispatched + shed" s.Server.parsed
        (s.Server.dispatched + s.Server.shed);
      (* in-process accessors agree with the RPC body *)
      let merged = Tq_serve.Server.merged_counters srv in
      check Alcotest.int "merged dispatcher counter" n
        (Tq_obs.Counters.find_count merged "serve.parsed");
      check Alcotest.bool "workers ran quanta" true
        (Tq_obs.Counters.find_count merged "runtime.quanta" > 0);
      check Alcotest.bool "sojourns recorded" true
        (Tq_obs.Latency.count (Tq_obs.Latency.recorder (Server.latency srv) "all") = n);
      Client.close client)

let test_shed_visible_in_stats () =
  (* rx_depth 1: with a pipelined burst nearly everything sheds, and the
     Stats RPC must show it while keeping the accounting identity *)
  with_server { base_config with rx_depth = 1 } (fun srv ->
      let n = 300 in
      let client = Client.connect ~port:(Server.port srv) () in
      for i = 0 to n - 1 do
        Client.send client ~req_id:i (Protocol.Echo { spin_ns = 1_000; payload = "x" })
      done;
      let shed = ref 0 and ok = ref 0 in
      for _ = 1 to n do
        match (Client.recv client).Protocol.status with
        | Protocol.Shed -> incr shed
        | Protocol.Ok -> incr ok
        | Protocol.Error msg -> Alcotest.failf "handler error: %s" msg
      done;
      check Alcotest.bool "the gate shed something" true (!shed > 0);
      check Alcotest.int "every send answered" n (!shed + !ok);
      let body = Client.stats client in
      check Alcotest.bool "shed visible in the snapshot" true
        (contains body (Printf.sprintf "\"shed\": %d" !shed));
      let s = Server.stats srv in
      check Alcotest.int "client and server agree on sheds" !shed s.Server.shed;
      check Alcotest.int "parsed = dispatched + shed" s.Server.parsed
        (s.Server.dispatched + s.Server.shed);
      let merged = Server.merged_counters srv in
      check Alcotest.int "per-class shed counter" !shed
        (Tq_obs.Counters.find_count merged "serve.shed.echo");
      Client.close client)

let test_cross_domain_spans () =
  let spans = Tq_obs.Span.create ~capacity_per_sink:4096 () in
  let srv = Server.create ~spans base_config in
  let th = Thread.create (fun () -> Server.serve srv) () in
  let n = 100 in
  let client = Client.connect ~port:(Server.port srv) () in
  run_batch client n;
  Client.close client;
  Server.stop srv;
  Thread.join th;
  (* the trace is read once every writer has stopped *)
  let trace = Tq_obs.Span.to_chrome ~process:"tq_serve" spans in
  check Alcotest.bool "trace renders chrome json" true
    (contains trace "\"traceEvents\"" && contains trace "\"name\":\"quantum\"");
  let records = Tq_obs.Span.merge spans in
  check Alcotest.bool "spans recorded" true (List.length records > 0);
  check Alcotest.int "nothing dropped at this volume" 0 (Tq_obs.Span.dropped spans);
  (* each phase of the pipeline shows up *)
  List.iter
    (fun phase ->
      check Alcotest.bool
        (Printf.sprintf "phase %s present" (Tq_obs.Span.phase_name phase))
        true
        (List.exists (fun (r : Tq_obs.Span.record) -> r.Tq_obs.Span.phase = phase) records))
    [
      Tq_obs.Span.Accept;
      Tq_obs.Span.Parse;
      Tq_obs.Span.Dispatch;
      Tq_obs.Span.Ring_hop;
      Tq_obs.Span.Quantum;
      Tq_obs.Span.Reply_flush;
    ];
  (* the tentpole property: one request id observed on the dispatcher
     lane AND a worker lane — the cross-domain stitch *)
  let dispatcher_ids, worker_ids =
    List.fold_left
      (fun (d, w) (r : Tq_obs.Span.record) ->
        if r.Tq_obs.Span.req_id < 0 then (d, w)
        else
          match r.Tq_obs.Span.lane with
          | Tq_obs.Span.Dispatcher _ -> (r.Tq_obs.Span.req_id :: d, w)
          | Tq_obs.Span.Worker _ -> (d, r.Tq_obs.Span.req_id :: w)
          | Tq_obs.Span.Global | Tq_obs.Span.Gc _ -> (d, w))
      ([], []) records
  in
  let stitched =
    List.filter (fun id -> List.mem id worker_ids) dispatcher_ids |> List.sort_uniq compare
  in
  check Alcotest.bool "request ids stitch across domains" true
    (List.length stitched >= n / 2);
  (* every dispatched request produced exactly one Quantum-per-slice
     chain ending in a completion: ids on worker lanes are the
     dispatcher-issued sequence, so they are dense from 0 *)
  let s = Server.stats srv in
  check Alcotest.int "server answered the batch" n s.Server.completed

let suite =
  [
    Alcotest.test_case "codec roundtrip" `Quick test_codec_roundtrip;
    Alcotest.test_case "reassembly byte-at-a-time" `Quick test_reassembly_byte_at_a_time;
    Alcotest.test_case "reassembly oversized" `Quick test_reassembly_rejects_oversized;
    Alcotest.test_case "loopback smoke" `Quick test_loopback_smoke;
    Alcotest.test_case "drain under load" `Quick test_drain_under_load;
    Alcotest.test_case "ledger violations named" `Quick test_ledger_violations;
    Alcotest.test_case "drain file contract" `Quick test_drain_file_contract;
    Alcotest.test_case "stats rpc" `Quick test_stats_rpc;
    Alcotest.test_case "shed visible in stats" `Quick test_shed_visible_in_stats;
    Alcotest.test_case "cross-domain spans" `Quick test_cross_domain_spans;
  ]

(* --- the breakdown view: stage decomposition over the wire --- *)

let test_breakdown_rpc () =
  let spans = Tq_obs.Span.create ~capacity_per_sink:8192 () in
  let srv = Server.create ~spans base_config in
  let th = Thread.create (fun () -> Server.serve srv) () in
  let n = 100 in
  let client = Client.connect ~port:(Server.port srv) () in
  run_batch client n;
  (* the JSON view decomposes live traffic and carries the invariant *)
  let body = Client.stats ~view:Protocol.Stats_breakdown client in
  List.iter
    (fun needle ->
      check Alcotest.bool (Printf.sprintf "breakdown json has %s" needle) true
        (contains body needle))
    [
      "\"schema_version\"";
      "\"requests\"";
      "\"sum_rel_error\"";
      "\"stages\"";
      "\"service\"";
      "\"reply_flush\"";
      "\"sojourn\"";
    ];
  (* the text view renders the table + invariant footer *)
  let text = Client.stats ~view:Protocol.Stats_breakdown_text client in
  check Alcotest.bool "text view shows the table" true
    (contains text "Stage breakdown" && contains text "sum invariant");
  Client.close client;
  Server.stop srv;
  Thread.join th;
  (* with the writers quiesced, the in-process accessor must decompose
     (nearly) everything exactly: all stamps share one wall clock *)
  let p = Server.breakdown srv in
  check Alcotest.bool "most requests decomposed" true (Tq_obs.Profile.requests p >= n * 9 / 10);
  check Alcotest.bool "decompositions are exact" true
    (Tq_obs.Profile.exact_fraction p >= 0.9);
  check Alcotest.bool "stage sums track sojourn" true
    (Tq_obs.Profile.sum_rel_error p < 0.01);
  check Alcotest.int "nothing dropped at this volume" 0 (Tq_obs.Span.dropped spans)

let json_number body key =
  match Result.map (Tq_util.Json.member key) (Tq_util.Json.of_string body) with
  | Ok (Some v) -> (
      match Tq_util.Json.number_opt v with
      | Some x -> int_of_float x
      | None -> Alcotest.failf "%s is not a number" key)
  | Ok None -> Alcotest.failf "%s missing from %s" key body
  | Error e -> Alcotest.failf "unreadable json: %s" e

let stage_total p =
  List.fold_left (fun acc s -> acc + Tq_obs.Profile.stage_sum_ns p s) 0 Tq_obs.Profile.stages

(* Without spans the loop still decomposes every completed request: the
   stages come from the reply, so the breakdown covers the whole batch,
   exactly, and its stage sums total the dispatcher's sojourns. *)
let test_breakdown_without_spans () =
  let n = 400 in
  let srv = Server.create base_config in
  let th = Thread.create (fun () -> Server.serve srv) () in
  let client = Client.connect ~port:(Server.port srv) () in
  run_batch client n;
  let body = Client.stats ~view:Protocol.Stats_breakdown client in
  Client.close client;
  Server.stop srv;
  Thread.join th;
  check Alcotest.int "the live view decomposed the batch" n (json_number body "requests");
  check Alcotest.int "exactly" n (json_number body "exact");
  let s = Server.stats srv in
  let p = Server.breakdown srv in
  check Alcotest.int "requests = completed" s.Server.completed (Tq_obs.Profile.requests p);
  check (Alcotest.float 0.0) "exact_fraction" 1.0 (Tq_obs.Profile.exact_fraction p);
  check Alcotest.int "nothing unattributed" 0 (Tq_obs.Profile.unattributed_count p);
  let json = Tq_obs.Profile.to_json p in
  check Alcotest.int "stage sums total the dispatcher's sojourn sum"
    (json_number json "sojourn_sum_ns") (stage_total p);
  let all = Tq_obs.Latency.recorder (Server.latency srv) "all" in
  check Alcotest.int "one sojourn per completion" (Tq_obs.Latency.count all)
    (Tq_obs.Profile.stage_count p Tq_obs.Profile.S_service)

(* With a span sink that keeps every span, the trace decomposes exactly
   as the loop did: both read the same stamps. *)
let test_breakdown_matches_spans () =
  let spans = Tq_obs.Span.create ~capacity_per_sink:16_384 () in
  let srv = Server.create ~spans base_config in
  let th = Thread.create (fun () -> Server.serve srv) () in
  let client = Client.connect ~port:(Server.port srv) () in
  run_batch client 400;
  Client.close client;
  Server.stop srv;
  Thread.join th;
  check Alcotest.int "every span kept" 0 (Tq_obs.Span.dropped spans);
  let live = Server.breakdown srv in
  let traced = Tq_obs.Profile.of_records (Tq_obs.Span.merge spans) in
  check Alcotest.int "same requests" (Tq_obs.Profile.requests traced)
    (Tq_obs.Profile.requests live);
  List.iter
    (fun stage ->
      check Alcotest.int
        (Tq_obs.Profile.stage_name stage ^ " sum")
        (Tq_obs.Profile.stage_sum_ns traced stage)
        (Tq_obs.Profile.stage_sum_ns live stage))
    Tq_obs.Profile.stages

let breakdown_suite =
  [
    Alcotest.test_case "breakdown rpc" `Quick test_breakdown_rpc;
    Alcotest.test_case "breakdown without spans" `Quick test_breakdown_without_spans;
    Alcotest.test_case "breakdown matches the span decomposition" `Quick
      test_breakdown_matches_spans;
  ]

let suite = suite @ breakdown_suite

(* --- the adaptive controller and the live fault plane --- *)

let adaptive_config =
  let ctl =
    {
      (Tq_control.Controller.default_config
         ~quantum_initial_ns:base_config.Server.quantum_ns ~shed_initial:1_024)
      with
      Tq_control.Controller.interval_ns = 1_000_000 (* 1 ms: many ticks per test *);
      objective = { Tq_obs.Slo.name = "test"; latency_ns = 5_000_000; goodput = 0.99 };
      quantum_min_ns = 1_000;
      quantum_max_ns = 2 * base_config.Server.quantum_ns;
    }
  in
  {
    base_config with
    Server.adaptive = Some ctl;
    heartbeat_interval_s = 0.01;
    missed_heartbeats = 3;
  }

(* The fault tests' batches hold tens of milliseconds of work, so the
   5 ms objective above is breached and the controller would shed most
   of a batch, leaving the worker they kill idle, unsuspected and never
   declared dead.  Under this controller the admission limit cannot
   fall below the batch, so no request is shed and the victim holds
   work when it dies. *)
let no_shed_config ~batch =
  match adaptive_config.Server.adaptive with
  | None -> assert false
  | Some ctl ->
      let floor = max batch ctl.Tq_control.Controller.shed_initial in
      {
        adaptive_config with
        Server.adaptive =
          Some { ctl with Tq_control.Controller.shed_min = floor; shed_initial = floor };
        ring_capacity = 4_096;
      }

let test_adaptive_controller_live () =
  with_server adaptive_config (fun srv ->
      let client = Client.connect ~port:(Server.port srv) () in
      run_batch client 500;
      (* several controller intervals pass even on a fast machine *)
      Unix.sleepf 0.05;
      run_batch client 100;
      let body = Client.stats ~view:Protocol.Stats_control client in
      List.iter
        (fun needle ->
          check Alcotest.bool (Printf.sprintf "control view has %s" needle) true
            (contains body needle))
        [ "\"ticks\""; "\"decisions\""; "\"shed_limit\""; "\"burn\""; "\"classes\"" ];
      check Alcotest.bool "controller actually ticked" true
        (match Server.control_json srv with
        | Some s -> contains s "\"ticks\"" && not (contains s "\"ticks\": 0,")
        | None -> false);
      (* the controller's telemetry rides the merged registry, and the
         full snapshot embeds the control state *)
      let merged = Server.merged_counters srv in
      check Alcotest.bool "control.ticks counter" true
        (Tq_obs.Counters.find_count merged "control.ticks" > 0);
      check Alcotest.bool "snapshot embeds control" true
        (contains (Server.snapshot_json srv) "\"control\"");
      Client.close client)

let test_control_view_needs_adaptive () =
  with_server base_config (fun srv ->
      let client = Client.connect ~port:(Server.port srv) () in
      (match Client.stats ~view:Protocol.Stats_control client with
      | exception Failure msg ->
          check Alcotest.bool "error names the fix" true (contains msg "--adaptive")
      | body -> Alcotest.failf "expected an error response, got: %s" body);
      check Alcotest.bool "no in-process control state" true
        (Server.control_json srv = None);
      Client.close client)

(* Kill a worker domain mid-load: the heartbeat monitor must notice,
   re-dispatch its pending requests to the survivor, and the drain
   invariant (zero admitted requests lost) must hold end to end. *)
let test_kill_worker_recovery () =
  let n = 600 in
  let srv = Server.create (no_shed_config ~batch:n) in
  let th = Thread.create (fun () -> Server.serve srv) () in
  let client = Client.connect ~port:(Server.port srv) () in
  for i = 0 to n - 1 do
    Client.send client ~req_id:i (Protocol.Echo { spin_ns = 50_000; payload = "" })
  done;
  (* wait until the pool owns a good chunk, then pull a domain *)
  let deadline = now_s () +. 30.0 in
  while
    (Server.stats srv).Server.dispatched < n / 4 && now_s () < deadline
  do
    Unix.sleepf 0.0005
  done;
  Server.kill_worker srv ~worker:1;
  let ok = ref 0 and shed = ref 0 in
  for _ = 1 to n do
    match (Client.recv client).Protocol.status with
    | Protocol.Ok -> incr ok
    | Protocol.Shed -> incr shed
    | Protocol.Error msg -> Alcotest.failf "handler error: %s" msg
  done;
  check Alcotest.int "every request answered" n (!ok + !shed);
  let s = Server.stats srv in
  check Alcotest.int "nothing shed under the no-shed controller" 0 s.Server.shed;
  check Alcotest.int "zero loss across the kill" s.Server.dispatched s.Server.completed;
  check Alcotest.int "death verdict reached" 1 s.Server.dead_workers;
  check Alcotest.bool "orphans re-dispatched to the survivor" true
    (s.Server.redispatched > 0);
  check Alcotest.int "one worker left standing" 1 (Server.alive_workers srv);
  Server.stop srv;
  Thread.join th;
  Client.close client;
  (* the drain still holds after the thread joined *)
  let s = Server.stats srv in
  check Alcotest.int "post-drain conservation" s.Server.dispatched s.Server.completed

(* A stall shorter than the death verdict, plus a dispatcher pause:
   both must ride through with no dead worker and no lost request. *)
let test_stall_and_pause_ride_through () =
  with_server { base_config with Server.heartbeat_interval_s = 0.02;
                missed_heartbeats = 5 }
    (fun srv ->
      let n = 200 in
      let client = Client.connect ~port:(Server.port srv) () in
      for i = 0 to n - 1 do
        Client.send client ~req_id:i (Protocol.Echo { spin_ns = 10_000; payload = "" })
      done;
      Server.inject_stall srv ~worker:0 ~duration_ns:30_000_000;
      Server.pause_dispatcher srv ~duration_ns:20_000_000;
      let ok = ref 0 and shed = ref 0 in
      for _ = 1 to n do
        match (Client.recv client).Protocol.status with
        | Protocol.Ok -> incr ok
        | Protocol.Shed -> incr shed
        | Protocol.Error msg -> Alcotest.failf "handler error: %s" msg
      done;
      check Alcotest.int "every request answered" n (!ok + !shed);
      let s = Server.stats srv in
      check Alcotest.int "no death verdict on a transient stall" 0 s.Server.dead_workers;
      check Alcotest.int "zero loss" s.Server.dispatched s.Server.completed;
      Client.close client)

(* A stall well past the death verdict on the only worker: once the
   worker beats again the verdict must be reversed, or the lane would
   shed every later request for the rest of the run. *)
let test_stalled_worker_revives () =
  let config =
    { base_config with Server.workers = 1; heartbeat_interval_s = 0.01;
      missed_heartbeats = 3 }
  in
  let srv = Server.create config in
  let th = Thread.create (fun () -> Server.serve srv) () in
  let client = Client.connect ~port:(Server.port srv) () in
  let wait_until what cond =
    let deadline = now_s () +. 5.0 in
    while (not (cond ())) && now_s () < deadline do
      Unix.sleepf 0.001
    done;
    check Alcotest.bool what true (cond ())
  in
  let send_batch ~first n =
    for i = first to first + n - 1 do
      Client.send client ~req_id:i (Protocol.Echo { spin_ns = 10_000; payload = "" })
    done
  in
  let recv_batch n =
    let ok = ref 0 in
    for _ = 1 to n do
      match (Client.recv client).Protocol.status with
      | Protocol.Ok -> incr ok
      | Protocol.Shed -> ()
      | Protocol.Error msg -> Alcotest.failf "handler error: %s" msg
    done;
    !ok
  in
  let n = 20 in
  (* work sent into the stall: the worker holds it and stops beating *)
  Server.inject_stall srv ~worker:0 ~duration_ns:300_000_000;
  send_batch ~first:0 n;
  wait_until "death verdict reached during the stall" (fun () ->
      (Server.stats srv).Server.dead_workers >= 1);
  let first_ok = recv_batch n in
  check Alcotest.bool "the stalled worker served its backlog" true (first_ok > 0);
  wait_until "verdict reversed once the worker beats again" (fun () ->
      Server.alive_workers srv = 1);
  send_batch ~first:n n;
  check Alcotest.int "requests after the stall are served, not shed" n (recv_batch n);
  Server.stop srv;
  Thread.join th;
  Client.close client;
  let s = Server.stats srv in
  check Alcotest.int "parsed = dispatched + shed" s.Server.parsed
    (s.Server.dispatched + s.Server.shed);
  check Alcotest.int "accepted = completed after drain" s.Server.dispatched
    (s.Server.completed + s.Server.lost + s.Server.dropped);
  check Alcotest.int "nothing lost" 0 s.Server.lost

(* The fault schedule driver against the real server loop: events fire
   at their offsets through the on_tick hook. *)
let test_live_fault_schedule () =
  (* the batch below holds ~20 ms of work, so the kill at 8 ms lands
     while the victim still owns queued requests *)
  let events =
    match Tq_fault.Live.parse "stall@2:w0:5,kill@8:w1" with
    | Ok evs -> evs
    | Error msg -> Alcotest.failf "parse: %s" msg
  in
  let live = Tq_fault.Live.create events in
  check Alcotest.int "two events pending" 2 (Tq_fault.Live.pending live);
  let n = 800 in
  let srv = Server.create (no_shed_config ~batch:n) in
  let actions =
    {
      Tq_fault.Live.stall =
        (fun ~worker ~duration_ns -> Server.inject_stall srv ~worker ~duration_ns);
      kill = (fun ~worker -> Server.kill_worker srv ~worker);
      pause = (fun ~duration_ns -> Server.pause_dispatcher srv ~duration_ns);
    }
  in
  Server.on_tick srv (fun ~now_ns -> ignore (Tq_fault.Live.poll live ~now_ns actions : int));
  let th = Thread.create (fun () -> Server.serve srv) () in
  let client = Client.connect ~port:(Server.port srv) () in
  (* a failed check must not leave the server's worker domains running
     into the tests after this one *)
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Thread.join th;
      Client.close client)
    (fun () ->
      for i = 0 to n - 1 do
        Client.send client ~req_id:i (Protocol.Echo { spin_ns = 50_000; payload = "" })
      done;
      let answered = ref 0 in
      for _ = 1 to n do
        match (Client.recv client).Protocol.status with
        | Protocol.Ok | Protocol.Shed -> incr answered
        | Protocol.Error msg -> Alcotest.failf "handler error: %s" msg
      done;
      check Alcotest.int "every request answered through the schedule" n !answered;
      check Alcotest.int "both events fired" 2 (Tq_fault.Live.fired live);
      let s = Server.stats srv in
      check Alcotest.int "nothing shed under the no-shed controller" 0 s.Server.shed;
      check Alcotest.int "zero loss under the schedule" s.Server.dispatched s.Server.completed;
      check Alcotest.int "the killed worker was declared dead" 1 s.Server.dead_workers)

let test_live_parse_errors () =
  (match Tq_fault.Live.parse "stall@5:w0:10, pause@8:3 ,kill@9:w2" with
  | Ok evs -> check Alcotest.int "spec with spaces parses" 3 (List.length evs)
  | Error msg -> Alcotest.failf "parse: %s" msg);
  List.iter
    (fun spec ->
      match Tq_fault.Live.parse spec with
      | Ok _ -> Alcotest.failf "accepted bad spec %S" spec
      | Error msg ->
          check Alcotest.bool "error names the grammar" true (contains msg "stall@"))
    [ "stall@5"; "kill@5:x1"; "frob@1:w0"; "stall@5:w-1:10" ]

let fault_suite =
  [
    Alcotest.test_case "adaptive controller live" `Quick test_adaptive_controller_live;
    Alcotest.test_case "control view needs --adaptive" `Quick
      test_control_view_needs_adaptive;
    Alcotest.test_case "kill worker: zero-loss recovery" `Quick test_kill_worker_recovery;
    Alcotest.test_case "stall + pause ride through" `Quick
      test_stall_and_pause_ride_through;
    Alcotest.test_case "stalled worker revives" `Quick test_stalled_worker_revives;
    Alcotest.test_case "live fault schedule" `Quick test_live_fault_schedule;
    Alcotest.test_case "live fault spec parse" `Quick test_live_parse_errors;
  ]

let suite = suite @ fault_suite

(* --- the I/O plane: pooled framing and the wire --- *)

(* encode_response_into must produce byte-for-byte what response_frame
   produces, even into a buffer full of stale garbage (the pool hands
   out dirty reused buffers by design), and Outbuf must survive
   arbitrary partial consumes — together the zero-copy reply path. *)
let test_zero_copy_framing () =
  let resps =
    [
      { Protocol.req_id = 1; status = Protocol.Ok; body = "" };
      { Protocol.req_id = 0x1234_5678_9abc; status = Protocol.Ok; body = "payload" };
      { Protocol.req_id = 2; status = Protocol.Shed; body = "" };
      { Protocol.req_id = 3; status = Protocol.Error "boom"; body = "ignored" };
      { Protocol.req_id = 4; status = Protocol.Ok; body = String.make 300 'z' };
    ]
  in
  List.iter
    (fun resp ->
      let golden = Protocol.response_frame resp in
      let len = Protocol.response_frame_len resp in
      check Alcotest.int "frame_len predicts the frame" (Bytes.length golden) len;
      let dirty = Bytes.make (len + 32) '\xff' in
      let n = Protocol.encode_response_into dirty ~off:16 resp in
      check Alcotest.int "encode_into reports the frame length" len n;
      check Alcotest.bool "encode_into matches response_frame" true
        (Bytes.sub dirty 16 n = golden))
    resps;
  (* Outbuf: interleaved adds and partial consumes preserve the byte
     stream across compactions and growth. *)
  let ob = Protocol.Outbuf.create ~capacity:16 () in
  let fed = Buffer.create 256 and drained = Buffer.create 256 in
  let rng = Tq_util.Prng.create ~seed:7L in
  for i = 0 to 99 do
    let chunk = String.make (Tq_util.Prng.int rng 40) (Char.chr (65 + (i mod 26))) in
    Buffer.add_string fed chunk;
    Protocol.Outbuf.add_bytes ob (Bytes.of_string chunk) ~off:0 ~len:(String.length chunk);
    let pending = Protocol.Outbuf.pending_bytes ob in
    let take = Tq_util.Prng.int rng (pending + 1) in
    let buf, off, len = Protocol.Outbuf.peek ob in
    check Alcotest.int "peek agrees with pending" pending len;
    Buffer.add_subbytes drained buf off take;
    Protocol.Outbuf.consume ob take
  done;
  let buf, off, len = Protocol.Outbuf.peek ob in
  Buffer.add_subbytes drained buf off len;
  Protocol.Outbuf.consume ob len;
  check Alcotest.bool "outbuf drained empty" true (Protocol.Outbuf.is_empty ob);
  check Alcotest.string "outbuf preserves the byte stream" (Buffer.contents fed)
    (Buffer.contents drained)

(* Buffer-pool property: however acquires and releases interleave, a
   response encoded into a (dirty, reused) pooled buffer decodes back
   to exactly itself — no cross-request bleed — and the pool really
   does recycle (hits on same-size traffic, exact fresh allocations on
   oversize). *)
let test_pool_reuse_no_bleed =
  let pool = Tq_serve.Pool.create ~max_pooled:4 ~buf_bytes:64 () in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"pooled framing never bleeds across requests"
       QCheck.(list_of_size (Gen.int_range 1 40) (pair small_nat (int_bound 120)))
       (fun reqs ->
         (* Half the buffers stay "in flight" briefly so reuse really
            interleaves with live encodes. *)
         let held = ref [] in
         List.iteri
           (fun i (id, body_len) ->
             let resp =
               {
                 Protocol.req_id = id;
                 status = (if body_len mod 3 = 0 then Protocol.Shed else Protocol.Ok);
                 body = String.init body_len (fun j -> Char.chr ((id + j) mod 256));
               }
             in
             let resp =
               if body_len mod 3 = 0 then { resp with body = "" } else resp
             in
             let len = Protocol.response_frame_len resp in
             let buf = Tq_serve.Pool.acquire pool ~len in
             check Alcotest.bool "buffer fits the frame" true (Bytes.length buf >= len);
             let n = Protocol.encode_response_into buf ~off:0 resp in
             check Alcotest.bool "pooled encode matches the golden frame" true
               (Bytes.sub buf 0 n = Protocol.response_frame resp);
             if i mod 2 = 0 then held := buf :: !held
             else Tq_serve.Pool.release pool buf)
           reqs;
         List.iter (Tq_serve.Pool.release pool) !held;
         true))

let test_pool_recycles () =
  let pool = Tq_serve.Pool.create ~max_pooled:8 ~buf_bytes:64 () in
  (* warm: one buffer in circulation -> every acquire after the first
     must be a free-list hit *)
  for _ = 1 to 50 do
    let b = Tq_serve.Pool.acquire pool ~len:32 in
    Tq_serve.Pool.release pool b
  done;
  check Alcotest.int "one miss to warm the pool" 1 (Tq_serve.Pool.misses pool);
  check Alcotest.int "then every acquire hits" 49 (Tq_serve.Pool.hits pool);
  (* oversize requests bypass the pool with exact allocations *)
  let big = Tq_serve.Pool.acquire pool ~len:1000 in
  check Alcotest.int "oversize is exact" 1000 (Bytes.length big);
  check Alcotest.int "oversize counted" 1 (Tq_serve.Pool.oversize pool);
  Tq_serve.Pool.release pool big;
  check Alcotest.int "wrong-size release discarded" 1 (Tq_serve.Pool.discarded pool);
  (* scrubbed pools hand back zeroed buffers *)
  let sp = Tq_serve.Pool.create ~scrub:true ~buf_bytes:64 () in
  let b = Tq_serve.Pool.acquire sp ~len:64 in
  Bytes.fill b 0 64 'x';
  Tq_serve.Pool.release sp b;
  let b' = Tq_serve.Pool.acquire sp ~len:64 in
  check Alcotest.bool "scrub zeroes reused buffers" true
    (Bytes.for_all (fun c -> c = '\x00') b')

(* The server must be byte-identical on the wire to the classic
   single-dispatcher server: drive a raw socket with a strict
   request/response window of 1 and compare every response frame
   against the golden encoding. *)
let test_wire_byte_compat () =
  with_server base_config (fun srv ->
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd
        (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", Server.port srv));
      let read_exactly n =
        let buf = Bytes.create n in
        let got = ref 0 in
        while !got < n do
          match Unix.read fd buf !got (n - !got) with
          | 0 -> Alcotest.fail "server closed mid-frame"
          | k -> got := !got + k
        done;
        buf
      in
      for i = 0 to 199 do
        let payload = String.make (i mod 97) 'e' in
        let b = Buffer.create 128 in
        Protocol.encode_request b ~req_id:i (Protocol.Echo { spin_ns = 0; payload });
        let frame = Buffer.to_bytes b in
        let sent = Unix.write fd frame 0 (Bytes.length frame) in
        check Alcotest.int "request written whole" (Bytes.length frame) sent;
        let golden =
          Protocol.response_frame { Protocol.req_id = i; status = Protocol.Ok; body = payload }
        in
        let got = read_exactly (Bytes.length golden) in
        check Alcotest.bool
          (Printf.sprintf "response %d byte-identical on the wire" i)
          true (got = golden)
      done;
      Unix.close fd)

(* Key placement is one function of the key for every connection: what
   one connection writes, another reads back, with the keys spread
   over four workers' stores. *)
let test_kv_across_connections () =
  with_server { base_config with workers = 4 } (fun srv ->
      let writer = Client.connect ~port:(Server.port srv) ()
      and reader = Client.connect ~port:(Server.port srv) () in
      let keys = 64 in
      let body c req =
        let resp = Client.call c req in
        check Alcotest.bool "answered ok" true (resp.Protocol.status = Protocol.Ok);
        resp.Protocol.body
      in
      for i = 0 to keys - 1 do
        let value = Printf.sprintf "new%d" i in
        check Alcotest.string "set acks" "+"
          (body writer (Protocol.Kv_set { key = App.kv_key i; value }))
      done;
      for i = 0 to keys - 1 do
        check Alcotest.string
          (Printf.sprintf "key %d written on another connection" i)
          (Printf.sprintf "+new%d" i)
          (body reader (Protocol.Kv_get { key = App.kv_key i }))
      done;
      Client.close writer;
      Client.close reader)

let io_suite =
  [
    Alcotest.test_case "zero-copy framing" `Quick test_zero_copy_framing;
    test_pool_reuse_no_bleed;
    Alcotest.test_case "pool recycles buffers" `Quick test_pool_recycles;
    Alcotest.test_case "lanes=1 wire byte-compat" `Quick test_wire_byte_compat;
    Alcotest.test_case "kv reads see writes from another connection" `Quick
      test_kv_across_connections;
  ]

let suite = suite @ io_suite

(* --- tail forensics: the outliers views and the HTTP metrics plane --- *)

let test_outlier_codec_roundtrip () =
  (* tags 6/7 carry a limit payload past the view tag; 0 = all *)
  List.iter
    (fun view ->
      check Alcotest.bool "outlier stats view survives" true
        (roundtrip (Protocol.Stats { view }) = Protocol.Stats { view }))
    [
      Protocol.Stats_outliers { limit = 0 };
      Protocol.Stats_outliers { limit = 7 };
      Protocol.Stats_outliers { limit = 65_535 };
      Protocol.Stats_outliers_text { limit = 0 };
      Protocol.Stats_outliers_text { limit = 10 };
    ]


let test_outliers_rpc () =
  let spans = Tq_obs.Span.create ~capacity_per_sink:16_384 () in
  let tail = Tq_obs.Tail.create ~k:8 () in
  let srv = Server.create ~spans ~tail base_config in
  let th = Thread.create (fun () -> Server.serve srv) () in
  let n = 200 in
  let client = Client.connect ~port:(Server.port srv) () in
  run_batch client n;
  (* live over the wire: JSON and table views *)
  let body = Client.stats ~view:(Protocol.Stats_outliers { limit = 5 }) client in
  List.iter
    (fun needle ->
      check Alcotest.bool (Printf.sprintf "outliers json has %s" needle) true
        (contains body needle))
    [ "\"dossiers\""; "\"offered\""; "\"retained\""; "\"stages_ns\""; "\"seq\"" ];
  let text = Client.stats ~view:(Protocol.Stats_outliers_text { limit = 5 }) client in
  check Alcotest.bool "table view renders" true
    (contains text "Slow-request dossiers" && contains text "sojourn");
  Client.close client;
  Server.stop srv;
  Thread.join th;
  (* quiesced: the in-process dossiers must attribute exactly *)
  let ds = Server.outlier_dossiers srv ~limit:0 in
  check Alcotest.bool "dossiers retained" true (ds <> []);
  check Alcotest.bool "limit truncates" true
    (List.length (Server.outlier_dossiers srv ~limit:3) <= 3);
  List.iter
    (fun (e : Tq_obs.Tail.entry) ->
      check Alcotest.int "stages telescope to the sojourn exactly" e.e_sojourn_ns
        (Array.fold_left ( + ) 0 e.e_stages);
      check Alcotest.bool "worker in range" true
        (e.Tq_obs.Tail.e_worker >= 0 && e.Tq_obs.Tail.e_worker < 2);
      check Alcotest.bool "controller quantum sampled" true
        (e.Tq_obs.Tail.e_quantum_ns > 0))
    ds;
  (* the acceptance ledger closes after drain *)
  let s = Server.stats srv in
  check Alcotest.int "accepted = completed after drain"
    s.Server.dispatched
    (s.Server.completed + s.Server.lost + s.Server.dropped);
  check Alcotest.int "no spans dropped at this volume" 0 (Server.span_dropped srv);
  (* the outlier-only trace is well-formed and much smaller than the
     full request stream: only retained requests' spans survive *)
  let trace = Server.tail_trace srv in
  check Alcotest.bool "outlier trace is chrome json" true
    (contains trace "\"traceEvents\"")

let test_outliers_need_tail () =
  with_server base_config (fun srv ->
      let client = Client.connect ~port:(Server.port srv) () in
      run_batch client 10;
      (match Client.stats ~view:(Protocol.Stats_outliers { limit = 5 }) client with
      | exception Failure msg ->
          check Alcotest.bool "error names the fix" true (contains msg "--tail-k")
      | body -> Alcotest.failf "expected an error response, got: %s" body);
      Client.close client)

(* A one-shot HTTP/1.1 GET against the metrics plane, raw sockets: the
   test must not trust the listener's own client code (there is none). *)
let http_get ~port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let req = Printf.sprintf "GET %s HTTP/1.1\r\nHost: t\r\n\r\n" path in
  ignore (Unix.write_substring fd req 0 (String.length req));
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  (try
     let rec loop () =
       let n = Unix.read fd chunk 0 4096 in
       if n > 0 then begin
         Buffer.add_subbytes buf chunk 0 n;
         loop ()
       end
     in
     loop ()
   with End_of_file | Unix.Unix_error _ -> ());
  Unix.close fd;
  let s = Buffer.contents buf in
  let rec find_sep i =
    if i + 4 > String.length s then None
    else if String.sub s i 4 = "\r\n\r\n" then Some i
    else find_sep (i + 1)
  in
  match find_sep 0 with
  | None -> Alcotest.failf "no header/body separator in response to %s" path
  | Some i ->
      let head = String.sub s 0 i in
      let body = String.sub s (i + 4) (String.length s - i - 4) in
      let status =
        match String.index_opt head '\r' with
        | Some eol -> String.sub head 0 eol
        | None -> head
      in
      (status, head, body)

(* Pull one metric sample's value out of Prometheus exposition text. *)
let metric_value body line_prefix =
  let lines = String.split_on_char '\n' body in
  List.find_map
    (fun l ->
      if
        String.length l > String.length line_prefix
        && String.sub l 0 (String.length line_prefix) = line_prefix
      then
        String.rindex_opt l ' '
        |> Option.map (fun sp ->
               float_of_string
                 (String.sub l (sp + 1) (String.length l - sp - 1)))
      else None)
    lines

let test_http_metrics_plane () =
  let spans = Tq_obs.Span.create ~capacity_per_sink:16_384 () in
  let tail = Tq_obs.Tail.create ~k:8 () in
  let srv = Server.create ~spans ~tail base_config in
  let th = Thread.create (fun () -> Server.serve srv) () in
  let http = Tq_serve.Http_expo.start ~port:0 srv in
  Fun.protect
    ~finally:(fun () ->
      Tq_serve.Http_expo.stop http;
      Server.stop srv;
      Thread.join th)
    (fun () ->
      let hport = Tq_serve.Http_expo.port http in
      let n = 200 in
      let client = Client.connect ~port:(Server.port srv) () in
      run_batch client n;
      (* /metrics: content type, lint-clean, and byte-consistent with
         the Stats RPC Prometheus view on the accounting identities *)
      let status, head, metrics = http_get ~port:hport "/metrics" in
      check Alcotest.bool "200 on /metrics" true (contains status "200");
      check Alcotest.bool "prometheus content type" true
        (contains head "text/plain; version=0.0.4");
      Alcotest.(check (list string)) "exposition passes lint" []
        (Tq_obs.Expo.lint metrics);
      let v name =
        match metric_value metrics name with
        | Some v -> v
        | None -> Alcotest.failf "metric %s missing from /metrics" name
      in
      let parsed = v "tq_serve_parsed_total{role=\"dispatcher\"}" in
      let dispatched = v "tq_serve_dispatched_total{role=\"dispatcher\"}" in
      let shed = v "tq_serve_shed_total{role=\"dispatcher\"}" in
      check (Alcotest.float 0.0) "parsed = dispatched + shed" parsed
        (dispatched +. shed);
      let g name =
        match metric_value metrics name with
        | Some v -> v
        | None -> Alcotest.failf "gauge %s missing from /metrics" name
      in
      let accepted = g "tq_serve_accepted{role=\"dispatcher\"}" in
      let completed = v "tq_serve_completed_total{role=\"dispatcher\"}" in
      let lost = g "tq_serve_lost{role=\"dispatcher\"}" in
      let dropped = g "tq_serve_dropped{role=\"dispatcher\"}" in
      let in_flight = g "tq_serve_in_flight{role=\"dispatcher\"}" in
      check (Alcotest.float 0.0) "accepted = completed + lost + dropped + in_flight"
        accepted
        (completed +. lost +. dropped +. in_flight);
      (* the RPC Prometheus view agrees on the same identity lines *)
      let rpc = Client.stats ~view:Protocol.Stats_text client in
      List.iter
        (fun name ->
          check (Alcotest.float 0.0)
            (Printf.sprintf "%s consistent across planes" name)
            (Option.get (metric_value metrics name))
            (match metric_value rpc name with
            | Some v -> v
            | None -> Alcotest.failf "metric %s missing from RPC view" name))
        [
          "tq_serve_parsed_total{role=\"dispatcher\"}";
          "tq_serve_dispatched_total{role=\"dispatcher\"}";
          "tq_serve_shed_total{role=\"dispatcher\"}";
        ];
      (* the dispatcher's span-drop gauge rides the exposition *)
      check Alcotest.bool "span_dropped exposed for the dispatcher" true
        (contains metrics "tq_obs_span_dropped{role=\"dispatcher\"}");
      (* /outliers serves the dossier JSON *)
      let status, head, outliers = http_get ~port:hport "/outliers" in
      check Alcotest.bool "200 on /outliers" true (contains status "200");
      check Alcotest.bool "json content type" true (contains head "application/json");
      check Alcotest.bool "dossiers served over http" true
        (contains outliers "\"dossiers\"");
      (* /healthz flips when the server is told to drain *)
      let status, _, body = http_get ~port:hport "/healthz" in
      check Alcotest.bool "healthy while serving" true
        (contains status "200" && contains body "ok");
      Server.stop srv;
      let status, _, body = http_get ~port:hport "/healthz" in
      check Alcotest.bool "503 when draining" true
        (contains status "503" && contains body "draining");
      (* unknown path: 404, connection still answered cleanly *)
      let status, _, _ = http_get ~port:hport "/nope" in
      check Alcotest.bool "404 elsewhere" true (contains status "404");
      Client.close client);
  (* stop is idempotent *)
  Tq_serve.Http_expo.stop http


(* A view the server cannot render answers non-200 with the Stats RPC's
   own message, on the HTTP plane as on the binary one. *)
let test_http_view_error () =
  with_server base_config (fun srv ->
      let http = Tq_serve.Http_expo.start ~port:0 srv in
      Fun.protect
        ~finally:(fun () -> Tq_serve.Http_expo.stop http)
        (fun () ->
          let status, _, body =
            http_get ~port:(Tq_serve.Http_expo.port http) "/outliers"
          in
          check Alcotest.bool "404 without tail forensics" true (contains status "404");
          match Server.render_stats srv (Protocol.Stats_outliers { limit = 0 }) with
          | Error msg ->
              check Alcotest.bool "body carries the rpc message" true (contains body msg)
          | Ok _ -> Alcotest.fail "outliers view rendered with tail forensics off"))

(* Dossiers need no spans: with spans off, every retained request
   carries its own stages, which telescope to its sojourn. *)
let test_outliers_without_spans () =
  let tail = Tq_obs.Tail.create ~k:4 () in
  let srv = Server.create ~tail base_config in
  let th = Thread.create (fun () -> Server.serve srv) () in
  let client = Client.connect ~port:(Server.port srv) () in
  run_batch client 200;
  let body = Client.stats ~view:(Protocol.Stats_outliers { limit = 0 }) client in
  Client.close client;
  Server.stop srv;
  Thread.join th;
  check Alcotest.bool "served over the wire" true (contains body "\"stages_ns\"");
  let ds = Server.outlier_dossiers srv ~limit:0 in
  check Alcotest.bool "dossiers retained" true (ds <> []);
  List.iter
    (fun (e : Tq_obs.Tail.entry) ->
      check Alcotest.bool "at least one quantum" true (e.e_quanta >= 1);
      check Alcotest.int "stages sum to the sojourn" e.e_sojourn_ns
        (Array.fold_left ( + ) 0 e.e_stages))
    ds

let tail_suite =
  [
    Alcotest.test_case "outlier codec roundtrip" `Quick test_outlier_codec_roundtrip;
    Alcotest.test_case "outliers rpc" `Quick test_outliers_rpc;
    Alcotest.test_case "outliers need tail sampling" `Quick test_outliers_need_tail;
    Alcotest.test_case "outliers without spans" `Quick test_outliers_without_spans;
    Alcotest.test_case "http metrics plane" `Quick test_http_metrics_plane;
    Alcotest.test_case "http view error carries the rpc message" `Quick
      test_http_view_error;
  ]

let suite = suite @ tail_suite

(* --- Set-up: config checks, prefill contents, GC isolation --- *)

(* The prefilled store is exactly [key%06d] -> [value%06d], the pairs
   tqbench's GET-after-SET check assumes.  The writer behind both names
   matches [Printf] inside its 0..999_999 fast range and hands the rest
   back to it. *)
let test_prefill_contents () =
  List.iter
    (fun i ->
      check Alcotest.string "kv_key" (Printf.sprintf "key%06d" i) (App.kv_key i);
      check Alcotest.string "kv_value" (Printf.sprintf "value%06d" i) (App.kv_value i))
    [ 0; 9; 10; 123_456; 999_999; 1_000_000; 12_345_678; -1; -42; min_int; max_int ];
  let app = App.create ~kv_keys:1024 ~seed:1L () in
  let get key =
    (App.execute app ~req_id:0 (Protocol.Kv_get { key })).Protocol.body
  in
  for i = 0 to 1023 do
    check Alcotest.string "prefilled value"
      (Printf.sprintf "+value%06d" i)
      (get (Printf.sprintf "key%06d" i))
  done;
  List.iter
    (fun key -> check Alcotest.string "nothing else stored" "-" (get key))
    [ App.kv_key 1024; App.kv_key (-1); "key1024"; "" ]

(* Each broken rule is named before anything is bound or built: the
   port stays free, so a fixed-port server binds it right after. *)
let test_config_rejected () =
  check Alcotest.(option string) "default config holds" None
    (Server.config_error Server.default_config);
  let bad_ctl =
    {
      (Tq_control.Controller.default_config ~quantum_initial_ns:5_000 ~shed_initial:64)
      with
      Tq_control.Controller.interval_ns = 0;
    }
  in
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname listener with Unix.ADDR_INET (_, p) -> p | _ -> assert false
  in
  Unix.close listener;
  let base = { base_config with Server.port } in
  List.iter
    (fun (name, config, msg) ->
      check Alcotest.(option string) name (Some msg) (Server.config_error config);
      Alcotest.check_raises name (Invalid_argument msg) (fun () ->
          ignore (Server.create config : Server.t)))
    [
      ("workers 0", { base with workers = 0 }, "workers must be positive (got 0)");
      ("quantum 0", { base with quantum_ns = 0 }, "quantum_ns must be positive (got 0)");
      ("ring 0", { base with ring_capacity = 0 },
       "ring_capacity must be positive (got 0)");
      ("rx_depth 0", { base with rx_depth = 0 }, "rx_depth must be positive (got 0)");
      ("kv_keys -1", { base with kv_keys = -1 }, "kv_keys must be >= 0 (got -1)");
      ("heartbeat -1", { base with heartbeat_interval_s = -1.0 },
       "heartbeat_interval_s must be >= 0 (got -1)");
      ("missed heartbeats 0", { base with missed_heartbeats = 0 },
       "missed_heartbeats must be positive (got 0)");
      ("pool_bufs -1", { base with pool_bufs = -1 }, "pool_bufs must be >= 0 (got -1)");
      ("pool_buf_bytes 10", { base with pool_buf_bytes = 10 },
       "pool_buf_bytes must be >= 64 (got 10)");
      ("queue limit 0",
       { base with admission = Tq_sched.Admission.Queue_limit { max_in_system = 0 } },
       "Admission: max_in_system must be >= 1");
      ("controller interval 0", { base with adaptive = Some bad_ctl },
       "Controller.create: interval must be positive");
    ];
  (* nothing above bound the port *)
  let srv = Server.create { base with workers = 1 } in
  check Alcotest.int "port still free" port (Server.port srv);
  Server.stop srv;
  Server.serve srv

(* No collection during [Server.create] stops a worker domain: every
   structure is built before the first worker exists.  The runtime's
   own event rings are read back after each set-up, without a consumer
   thread that could allocate inside the window; user events bracket
   the [create] call on the same clock.  A minor collection — the kind
   that stops every domain — on a domain other than the caller's that
   starts inside the bracket fails the test.  The minor heap is filled
   to four levels first, so collections land at different points of
   the set-up each time, and the caller must collect inside at least
   one bracket, or the gate proves nothing.  Set-up allocates well under
   a fifth of the heap, so only the fullest level still makes it
   collect. *)
type Runtime_events.User.tag += Server_create

let test_setup_gc_isolation () =
  let module Re = Runtime_events in
  Re.start ();
  let cursor = Re.create_cursor None in
  let bracket = Re.User.register "test.server_create" Server_create Re.Type.span in
  let me = (Domain.self () :> int) in
  let window = ref (0L, 0L) and minors = ref [] and lost = ref 0 in
  let callbacks =
    Re.Callbacks.create
      ~runtime_begin:(fun dom ts phase ->
        if phase = Re.EV_MINOR then minors := (dom, Re.Timestamp.to_int64 ts) :: !minors)
      ~lost_events:(fun _ n -> lost := !lost + n)
      ()
    |> Re.Callbacks.add_user_event Re.Type.span (fun dom ts ev edge ->
           if dom = me && Re.User.name ev = Re.User.name bracket then
             let t = Re.Timestamp.to_int64 ts in
             match edge with
             | Re.Type.Begin -> window := (t, t)
             | Re.Type.End -> window := (fst !window, t))
  in
  let drain () = ignore (Re.read_poll cursor callbacks None : int) in
  let heap_words = (Gc.get ()).Gc.minor_heap_size in
  let caller_collected =
    List.map
      (fun fill ->
        Gc.minor ();
        for _ = 1 to fill * heap_words / 100 / 256 do
          ignore (Sys.opaque_identity (Array.make 255 0))
        done;
        drain ();
        minors := [];
        Re.User.write bracket Re.Type.Begin;
        let srv = Server.create { base_config with workers = 2; kv_keys = 1024 } in
        Re.User.write bracket Re.Type.End;
        Server.stop srv;
        Server.serve srv;
        drain ();
        let t0, t1 = !window in
        let inside ~caller =
          List.length
            (List.filter (fun (d, t) -> (d = me) = caller && t >= t0 && t <= t1) !minors)
        in
        check Alcotest.bool "set-up bracketed" true (t1 > t0);
        check Alcotest.int
          (Printf.sprintf "worker-domain minor GCs during set-up (heap %d%% full)" fill)
          0 (inside ~caller:false);
        inside ~caller:true > 0)
      [ 0; 40; 80; 99 ]
  in
  check Alcotest.bool "the caller collected during some set-up" true
    (List.mem true caller_collected);
  Re.free_cursor cursor;
  check Alcotest.int "no runtime events lost" 0 !lost

(* Set-up forces no collection.  Each build starts from an empty minor
   heap; a collection inside it would come from [Array.init] making a
   long array whose first element is a fresh block (the runtime empties
   the minor heap first), or from filling the heap. *)
let measured_setup f =
  Gc.minor ();
  let gcs = (Gc.quick_stat ()).Gc.minor_collections and words = Gc.minor_words () in
  let x = f () in
  (x, (Gc.quick_stat ()).Gc.minor_collections - gcs, Gc.minor_words () -. words)

let test_setup_collects_nothing () =
  let _, gcs, _ = measured_setup (fun () -> App.create ~kv_keys:1024 ~seed:1L ()) in
  check Alcotest.int "App.create ~kv_keys:1024: minor collections" 0 gcs;
  let srv, gcs, words =
    measured_setup (fun () -> Server.create { base_config with workers = 2; kv_keys = 1024 })
  in
  Server.stop srv;
  Server.serve srv;
  check Alcotest.int "Server.create (2 workers, 1024 keys): minor collections" 0 gcs;
  if words > 64_000. then
    Alcotest.failf "Server.create (2 workers, 1024 keys) allocated %.0f minor words > 64k"
      words

(* The same with spans on ([tq_serve --obs]): every domain's sink is
   built too. *)
let test_spans_setup_collects_nothing () =
  let srv, gcs, _ =
    measured_setup (fun () ->
        Server.create
          ~spans:(Tq_obs.Span.create ~capacity_per_sink:524_288 ())
          { base_config with workers = 2 })
  in
  Server.stop srv;
  Server.serve srv;
  check Alcotest.int "Server.create ~spans (2 workers): minor collections" 0 gcs

let setup_suite =
  [
    Alcotest.test_case "set-up collects nothing" `Quick test_setup_collects_nothing;
    Alcotest.test_case "prefill contents" `Quick test_prefill_contents;
    Alcotest.test_case "set-up with spans collects nothing" `Quick
      test_spans_setup_collects_nothing;
    Alcotest.test_case "bad config rejected before bind" `Quick test_config_rejected;
    Alcotest.test_case "set-up gc stops no worker" `Quick test_setup_gc_isolation;
  ]

let suite = suite @ setup_suite

(* --- Request execution and the load generator's config --- *)

(* A KV or TPC-C request ends with no probe after its work, so a worker
   whose quantum ran out during that work finishes it in the same slice
   instead of yielding it with nothing left to do.  A 1 ns wall-clock
   quantum has run out by any probe. *)
let test_finished_request_one_slice () =
  let module Task_worker = Tq_runtime.Task_worker in
  let app = App.create ~kv_keys:64 ~seed:3L () in
  let slices = ref 0 and bodies = ref [] in
  let w =
    Task_worker.create ~clock:(Tq_runtime.Clock.wall ()) ~quantum_ns:1
      ~on_quantum:(fun ~task_id:_ ~start_ns:_ ~end_ns:_ ~finished:_ -> incr slices)
      ~on_finish:ignore ()
  in
  let requests =
    List.concat_map
      (fun i ->
        Protocol.Kv_get { key = App.kv_key i }
        :: Protocol.Kv_set { key = App.kv_key i; value = "v" }
        :: List.map
             (fun kind -> Protocol.Tpcc { kind })
             Tq_tpcc.Transactions.[ Payment; Order_status; New_order; Delivery; Stock_level ])
      (List.init 20 Fun.id)
  in
  List.iteri
    (fun req_id req ->
      Task_worker.submit w
        {
          Task_worker.task_id = req_id;
          class_idx = 0;
          work =
            (fun ~wid:_ ->
              let r = App.execute app ~req_id req in
              bodies := r.Protocol.status :: !bodies);
        })
    requests;
  Task_worker.run_until_idle w;
  check Alcotest.int "every request ran" (List.length requests) (List.length !bodies);
  Alcotest.(check bool) "every request succeeded" true
    (List.for_all (fun s -> s = Protocol.Ok) !bodies);
  check Alcotest.int "one slice per request" (List.length requests) !slices;
  check Alcotest.int "no yields" 0 (Task_worker.total_yields w)

(* Each broken rule is named before the generator connects (port 1 has
   no listener, so a config that got that far would raise a Unix
   error instead). *)
let test_load_config_rejected () =
  let module Load_gen = Tq_serve.Load_gen in
  let base = Load_gen.default_config ~rate_rps:1000.0 ~port:1 in
  let mix = base.Load_gen.mix in
  check Alcotest.(option string) "default config holds" None (Load_gen.config_error base);
  List.iter
    (fun (name, config, msg) ->
      check Alcotest.(option string) name (Some msg) (Load_gen.config_error config);
      Alcotest.check_raises name (Invalid_argument msg) (fun () ->
          ignore (Load_gen.run config : Load_gen.result)))
    [
      ("rate 0", { base with rate_rps = 0.0 }, "rate_rps must be positive and finite (got 0)");
      ("rate nan", { base with rate_rps = Float.nan },
       "rate_rps must be positive and finite (got nan)");
      ("connections 0", { base with connections = 0 }, "connections must be positive (got 0)");
      ("warmup -1", { base with warmup_s = -1.0 }, "warmup_s must be >= 0 (got -1)");
      ("measure 0", { base with measure_s = 0.0 }, "measure_s must be positive (got 0)");
      ("grace -1", { base with grace_s = -1.0 }, "grace_s must be >= 0 (got -1)");
      ("kv weight -1", { base with mix = { mix with kv = -1.0 } },
       "mix.kv must be finite and >= 0 (got -1)");
      ("heavy fraction -0.5", { base with mix = { mix with echo_heavy = -0.5 } },
       "mix.echo_heavy must be finite and >= 0 (got -0.5)");
      ("zero weights",
       { base with mix = { mix with echo = 0.0; kv = 0.0; tpcc = 0.0; echo_heavy = 0.0 } },
       "mix weights must not all be zero");
      ("spin -1", { base with mix = { mix with echo_spin_ns = -1 } },
       "mix.echo_spin_ns must be >= 0 (got -1)");
      ("heavy spin -1", { base with mix = { mix with echo_heavy_spin_ns = -1 } },
       "mix.echo_heavy_spin_ns must be >= 0 (got -1)");
      ("stats interval 0", { base with stats_interval_s = Some 0.0 },
       "stats_interval_s must be positive (got 0)");
    ]

(* A generator that falls behind must not hide the delay.  A stub
   server answers every request at once but holds each Stats reply for
   200 ms, and the generator polls Stats every 300 ms: each poll stalls
   its sending loop for 200 ms of every 300.  About a third of the
   requests are owed more than 100 ms before they go out.  Timed from
   their intended send time they carry that delay, so p90 is over
   100 ms; timed from the poll that sent them (about 1% of requests
   then show a stall: those in flight when it began) p90 stays near the
   stub's 2 ms. *)
let stub_server ~stats_delay_s =
  let lfd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lfd Unix.SO_REUSEADDR true;
  Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lfd 16;
  let port = match Unix.getsockname lfd with Unix.ADDR_INET (_, p) -> p | _ -> 0 in
  let stop = Atomic.make false in
  let serve () =
    let conns = ref [] and held = ref [] in
    let chunk = Bytes.create 65536 in
    let reply fd resp =
      let frame = Protocol.response_frame resp in
      ignore (Unix.write fd frame 0 (Bytes.length frame) : int)
    in
    while not (Atomic.get stop) do
      let now = now_s () in
      let due, later = List.partition (fun (t, _, _) -> t <= now) !held in
      held := later;
      List.iter (fun (_, fd, resp) -> reply fd resp) due;
      let ready, _, _ = Unix.select (lfd :: List.map fst !conns) [] [] 0.001 in
      List.iter
        (fun fd ->
          if fd == lfd then
            conns := (fst (Unix.accept ~cloexec:true lfd), Protocol.Reassembly.create ())
                     :: !conns
          else
            let rb = List.assq fd !conns in
            let n = try Unix.read fd chunk 0 (Bytes.length chunk) with Unix.Unix_error _ -> 0 in
            if n = 0 then conns := List.filter (fun (c, _) -> c != fd) !conns
            else begin
              Protocol.Reassembly.add rb chunk n;
              let rec drain () =
                match Protocol.Reassembly.next rb with
                | Ok (Some payload) ->
                    (match Protocol.decode_request payload with
                    | Ok (req_id, Protocol.Stats _) ->
                        let resp = { Protocol.req_id; status = Protocol.Ok; body = "{}" } in
                        held := (now +. stats_delay_s, fd, resp) :: !held
                    | Ok (req_id, _) ->
                        reply fd { Protocol.req_id; status = Protocol.Ok; body = "" }
                    | Error msg -> failwith msg);
                    drain ()
                | Ok None -> ()
                | Error msg -> failwith msg
              in
              drain ()
            end)
        ready
    done;
    List.iter (fun (fd, _) -> Unix.close fd) !conns;
    Unix.close lfd
  in
  let dom = Domain.spawn serve in
  (port, fun () -> Atomic.set stop true; Domain.join dom)

let test_load_times_from_intended_send () =
  let module Load_gen = Tq_serve.Load_gen in
  let port, stop = stub_server ~stats_delay_s:0.2 in
  let r =
    Fun.protect ~finally:stop (fun () ->
        Load_gen.run
          {
            (Load_gen.default_config ~rate_rps:2000.0 ~port) with
            connections = 2;
            warmup_s = 0.1;
            measure_s = 1.0;
            grace_s = 0.5;
            stats_interval_s = Some 0.3;
          })
  in
  let p90_ms =
    float_of_int (Tq_obs.Latency.percentile (Tq_obs.Latency.recorder r.latency "all") 90.0)
    /. 1e6
  in
  check Alcotest.int "every request answered" 0 r.outstanding;
  Alcotest.(check bool)
    (Printf.sprintf "stalls show in p90 (%.1f ms >= 100)" p90_ms) true (p90_ms >= 100.0);
  Alcotest.(check bool)
    (Printf.sprintf "lag max %.1f ms >= 100" (r.lag_max_us /. 1e3)) true
    (r.lag_max_us >= 100_000.0)

let exec_suite =
  [
    Alcotest.test_case "finished request takes one slice" `Quick
      test_finished_request_one_slice;
    Alcotest.test_case "bad load config rejected before connect" `Quick
      test_load_config_rejected;
    Alcotest.test_case "load times from intended send" `Quick
      test_load_times_from_intended_send;
  ]

let suite = suite @ exec_suite

(* --- Misbehaving clients: the loop's close, orphan and deadline paths --- *)

(* Runs [f] against a live server, then stops it and waits for [serve]
   to return: the result of [f] and the drained ledger. *)
let drained config f =
  let srv = Server.create config in
  let th = Thread.create Server.serve srv in
  let r =
    Fun.protect
      ~finally:(fun () ->
        Server.stop srv;
        Thread.join th)
      (fun () -> f srv)
  in
  (r, Server.stats srv)

let wait_until what holds =
  let deadline = now_s () +. 10.0 in
  while (not (holds ())) && now_s () < deadline do
    Unix.sleepf 0.001
  done;
  if not (holds ()) then Alcotest.failf "timed out waiting for %s" what

(* A raw socket with a receive timeout, so a server that never closes
   it fails the test instead of hanging it. *)
let raw_connect srv =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port srv));
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
  fd

let write_all fd b =
  let off = ref 0 in
  while !off < Bytes.length b do
    off := !off + Unix.write fd b !off (Bytes.length b - !off)
  done

(* Response frames read until the server closes the connection. *)
let frames_until_eof fd =
  let rb = Protocol.Reassembly.create () and chunk = Bytes.create 65536 in
  let rec go n =
    match Protocol.Reassembly.next rb with
    | Ok (Some _) -> go (n + 1)
    | Error msg -> Alcotest.failf "response stream: %s" msg
    | Ok None -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> n
        | k ->
            Protocol.Reassembly.add rb chunk k;
            go n)
  in
  go 0

(* A length prefix over the frame cap, a well-sized frame with an
   unknown request tag, and a Stats request for the retired view tag 2
   (once the span-trace view): each closes its own connection with no
   reply and counts one protocol error, while a fourth connection is
   served. *)
let test_malformed_frames () =
  let oversized = Bytes.create 4 in
  Bytes.set_int32_be oversized 0 (Int32.of_int (Protocol.max_frame_bytes + 1));
  let unknown_tag = Bytes.create 13 in
  Bytes.set_int32_be unknown_tag 0 9l;
  Bytes.set_int64_be unknown_tag 4 7L;
  Bytes.set_uint8 unknown_tag 12 99;
  let retired_view = Bytes.create 14 in
  Bytes.set_int32_be retired_view 0 10l;
  Bytes.set_int64_be retired_view 4 8L;
  Bytes.set_uint8 retired_view 12 4;
  Bytes.set_uint8 retired_view 13 2;
  let (), s =
    drained base_config (fun srv ->
        List.iter
          (fun frame ->
            let fd = raw_connect srv in
            write_all fd frame;
            check Alcotest.int "closed with no reply" 0 (frames_until_eof fd);
            Unix.close fd)
          [ oversized; unknown_tag; retired_view ];
        let c = Client.connect ~port:(Server.port srv) () in
        let resp = Client.call c (Protocol.Echo { spin_ns = 0; payload = "still here" }) in
        Client.close c;
        check Alcotest.bool "fourth connection served" true
          (resp.Protocol.status = Protocol.Ok && resp.Protocol.body = "still here"))
  in
  check Alcotest.int "three protocol errors" 3 s.Server.protocol_errors;
  check Alcotest.int "one request served" 1 s.Server.completed;
  check Alcotest.(list string) "ledger balanced" [] (Server.ledger_violations s)

(* The client hangs up while its 20 ms request runs: the reply finds no
   connection and is counted orphaned, and the request still completes. *)
let test_vanished_client () =
  let (), s =
    drained base_config (fun srv ->
        let c = Client.connect ~port:(Server.port srv) () in
        Client.send c ~req_id:0 (Protocol.Echo { spin_ns = 20_000_000; payload = "" });
        wait_until "dispatch" (fun () -> (Server.stats srv).Server.dispatched = 1);
        Client.close c;
        wait_until "the orphaned reply" (fun () -> (Server.stats srv).Server.orphaned = 1))
  in
  check Alcotest.int "orphaned" 1 s.Server.orphaned;
  check Alcotest.int "dispatched = completed" s.Server.dispatched s.Server.completed;
  check Alcotest.int "none lost" 0 s.Server.lost

(* A client pipelines 16 MiB of echo replies, more than both socket
   buffers hold, and reads none.  The drain finishes every request but
   gives up flushing at the deadline: [serve] returns promptly and the
   client then reads fewer replies than it sent before EOF. *)
let test_unread_replies_drain_deadline () =
  let n = 1024 and payload = String.make 16_384 'x' in
  let config = { base_config with ring_capacity = 4096; drain_timeout_s = 0.2 } in
  let (fd, stopped_at), s =
    drained config (fun srv ->
        let fd = raw_connect srv in
        let b = Buffer.create ((n + 1) * 16_400) in
        for i = 0 to n - 1 do
          Protocol.encode_request b ~req_id:i (Protocol.Echo { spin_ns = 0; payload })
        done;
        write_all fd (Buffer.to_bytes b);
        wait_until "every request parsed" (fun () -> (Server.stats srv).Server.parsed = n);
        (fd, now_s ()))
  in
  let drain_s = now_s () -. stopped_at in
  check Alcotest.bool (Printf.sprintf "serve returned in %.2f s" drain_s) true (drain_s < 2.0);
  check Alcotest.int "dispatched = completed" s.Server.dispatched s.Server.completed;
  check Alcotest.int "none lost" 0 s.Server.lost;
  let got = frames_until_eof fd in
  Unix.close fd;
  check Alcotest.bool (Printf.sprintf "%d of %d replies reached the client" got n) true
    (got < n)

let misbehaving_suite =
  [
    Alcotest.test_case "malformed frames close only their connection" `Quick
      test_malformed_frames;
    Alcotest.test_case "vanished client's reply is orphaned" `Quick test_vanished_client;
    Alcotest.test_case "unread replies stop at the drain deadline" `Quick
      test_unread_replies_drain_deadline;
  ]

let suite = suite @ misbehaving_suite

(* --- The park: the loop waits on work, not on a timer --- *)

let wait_for ?(seconds = 5.0) cond =
  let deadline = now_s () +. seconds in
  while (not (cond ())) && now_s () < deadline do
    Unix.sleepf 0.0002
  done;
  cond ()

(* [f ()] in a thread, within [seconds]: a lost wake-up shows as a
   client blocked for ever, so the test times the call from outside and
   fails instead of hanging ([stop] rings the doorbell, which frees the
   blocked client before the failure is reported). *)
let within srv ~seconds what f =
  let result = Atomic.make None in
  let th = Thread.create (fun () -> Atomic.set result (Some (f ()))) () in
  if not (wait_for ~seconds (fun () -> Atomic.get result <> None)) then begin
    Server.stop srv;
    Thread.join th;
    Alcotest.failf "%s: no answer within %.1f s" what seconds
  end;
  Thread.join th;
  Option.get (Atomic.get result)

(* With no heartbeat and no controller the parked loop has no timer at
   all, so only the doorbell can wake it for a reply.  A long request
   holds the only worker; once the loop has parked with it in flight, a
   short request on a second connection must come back well before the
   long one ends (processor sharing gives it a quantum at once). *)
let test_parked_loop_answers () =
  let config = { base_config with Server.workers = 1; heartbeat_interval_s = 0.0 } in
  let srv = Server.create config in
  let th = Thread.create (fun () -> Server.serve srv) () in
  let long = Client.connect ~port:(Server.port srv) () in
  let short = Client.connect ~port:(Server.port srv) () in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Thread.join th;
      Client.close long;
      Client.close short)
    (fun () ->
      ignore (within srv ~seconds:5.0 "warm-up echo" (fun () ->
                  Client.call short (Protocol.Echo { spin_ns = 0; payload = "w" })));
      Client.send long ~req_id:1 (Protocol.Echo { spin_ns = 200_000_000; payload = "l" });
      check Alcotest.bool "the loop parks with the long request in flight" true
        (wait_for (fun () ->
             (Server.stats srv).Server.in_flight = 1 && Server.parked srv));
      let t0 = now_s () in
      let r =
        within srv ~seconds:5.0 "short request sent to a parked loop" (fun () ->
            Client.call short (Protocol.Echo { spin_ns = 0; payload = "s" }))
      in
      let took = now_s () -. t0 in
      check Alcotest.string "short reply" "s" r.Protocol.body;
      check Alcotest.bool
        (Printf.sprintf "short reply in %.1f ms, before the long one ends" (took *. 1e3))
        true (took < 0.1);
      let r = within srv ~seconds:5.0 "long request" (fun () -> Client.recv long) in
      check Alcotest.string "long reply" "l" r.Protocol.body)

(* The loop's garbage per request, for a paced echo batch: the client
   runs on its own domain, so this domain's minor words are the loop's
   (and the idle test thread's).  A loop that spins between requests
   allocates by the pass, not by the request; one that parks allocates
   for the work it does.  Minor collections are the whole process's:
   each one stops every domain. *)
let paced_words_bound = 300.0  (* a loop that spun measured 3.4k-4.1k *)
let paced_collections_bound = 5  (* a loop that spun measured 7-8 *)

let test_paced_echo_garbage () =
  let srv = Server.create { base_config with Server.workers = 1 } in
  let th = Thread.create (fun () -> Server.serve srv) () in
  let n = 400 in
  let port = Server.port srv in
  let words0 = Gc.minor_words () and gcs0 = (Gc.quick_stat ()).Gc.minor_collections in
  let client =
    Domain.spawn (fun () ->
        let c = Client.connect ~port () in
        let ok = ref 0 in
        for _ = 1 to n do
          (match (Client.call c (Protocol.Echo { spin_ns = 0; payload = "" })).status with
          | Protocol.Ok -> incr ok
          | _ -> ());
          Unix.sleepf 0.00025
        done;
        Client.close c;
        !ok)
  in
  let ok = Domain.join client in
  let words = Gc.minor_words () -. words0
  and gcs = (Gc.quick_stat ()).Gc.minor_collections - gcs0 in
  Server.stop srv;
  Thread.join th;
  check Alcotest.int "every echo answered" n ok;
  let per_request = words /. float_of_int n in
  if per_request > paced_words_bound then
    Alcotest.failf "loop minor words per request %.0f > %.0f" per_request
      paced_words_bound;
  if gcs > paced_collections_bound then
    Alcotest.failf "minor collections over %d paced echos: %d > %d" n gcs
      paced_collections_bound

let park_suite =
  [
    Alcotest.test_case "parked loop answers in-flight work" `Quick
      test_parked_loop_answers;
    Alcotest.test_case "paced echo garbage" `Quick test_paced_echo_garbage;
  ]

let suite = suite @ park_suite
