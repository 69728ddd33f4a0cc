(* Tests for tq_obs: request spans and their Chrome and text exports,
   the counter registry and the time-series store. *)

module Counters = Tq_obs.Counters
module Timeseries = Tq_obs.Timeseries
module Latency = Tq_obs.Latency
module Span = Tq_obs.Span
module Expo = Tq_obs.Expo
module Slo = Tq_obs.Slo

let check = Alcotest.check

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* A strict-enough JSON well-formedness checker for exporter output:
   consumes one value, returns the index after it, raises Failure on
   malformed input.  Values: objects, arrays, strings (with escapes),
   numbers, true/false/null. *)
let json_parse s =
  let n = String.length s in
  let fail i msg = failwith (Printf.sprintf "json at %d: %s" i msg) in
  let rec skip_ws i = if i < n && (s.[i] = ' ' || s.[i] = '\n' || s.[i] = '\t' || s.[i] = '\r') then skip_ws (i + 1) else i in
  let rec value i =
    let i = skip_ws i in
    if i >= n then fail i "eof"
    else
      match s.[i] with
      | '{' -> obj (skip_ws (i + 1)) true
      | '[' -> arr (skip_ws (i + 1)) true
      | '"' -> string_ (i + 1)
      | 't' -> lit i "true"
      | 'f' -> lit i "false"
      | 'n' -> lit i "null"
      | '-' | '0' .. '9' -> number i
      | c -> fail i (Printf.sprintf "unexpected %c" c)
  and lit i w =
    if i + String.length w <= n && String.sub s i (String.length w) = w then
      i + String.length w
    else fail i ("expected " ^ w)
  and number i =
    let j = ref (if s.[i] = '-' then i + 1 else i) in
    while !j < n && (match s.[!j] with '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true | _ -> false) do
      incr j
    done;
    if !j = i then fail i "empty number" else !j
  and string_ i =
    if i >= n then fail i "unterminated string"
    else if s.[i] = '"' then i + 1
    else if s.[i] = '\\' then string_ (i + 2)
    else string_ (i + 1)
  and obj i first =
    if i < n && s.[i] = '}' then i + 1
    else begin
      let i = if first then i else skip_ws i in
      if i >= n || s.[i] <> '"' then fail i "object key";
      let i = skip_ws (string_ (i + 1)) in
      if i >= n || s.[i] <> ':' then fail i "colon";
      let i = skip_ws (value (i + 1)) in
      if i < n && s.[i] = ',' then obj (skip_ws (i + 1)) false
      else if i < n && s.[i] = '}' then i + 1
      else fail i "object sep"
    end
  and arr i first =
    if i < n && s.[i] = ']' then i + 1
    else begin
      let i = if first then i else i in
      let i = skip_ws (value i) in
      if i < n && s.[i] = ',' then arr (skip_ws (i + 1)) false
      else if i < n && s.[i] = ']' then i + 1
      else fail i "array sep"
    end
  in
  let i = skip_ws (value 0) in
  let i = skip_ws i in
  if i <> n then failwith (Printf.sprintf "json: %d trailing bytes" (n - i))

let json_well_formed name s =
  match json_parse s with
  | () -> ()
  | exception Failure msg -> Alcotest.failf "%s: %s" name msg

(* --- counter registry --- *)

let test_counters_registry () =
  let reg = Counters.create () in
  let c = Counters.counter reg "dispatch.decisions" in
  Counters.incr c;
  Counters.incr c;
  Counters.add c 3;
  check Alcotest.int "counter accumulates" 5 (Counters.count c);
  let c' = Counters.counter reg "dispatch.decisions" in
  Counters.incr c';
  check Alcotest.int "same name, same cell" 6 (Counters.count c);
  check Alcotest.int "find_count" 6 (Counters.find_count reg "dispatch.decisions");
  check Alcotest.int "find_count missing = 0" 0 (Counters.find_count reg "nope");
  let g = Counters.gauge reg "queue.depth" in
  Counters.set g 42.0;
  check (Alcotest.float 1e-9) "gauge holds last" 42.0 (Counters.value g);
  Alcotest.(check bool) "kind mismatch rejected" true
    (try
       ignore (Counters.gauge reg "dispatch.decisions");
       false
     with Invalid_argument _ -> true)

let test_counters_dist () =
  let reg = Counters.create () in
  let d = Counters.dist reg "worker.overshoot_ns" in
  List.iter (Counters.observe d) [ 1; 3; 3; 100 ];
  check Alcotest.int "n" 4 (Counters.dist_count d);
  check (Alcotest.float 1e-9) "mean" 26.75 (Counters.dist_mean d);
  check Alcotest.int "max" 100 (Counters.dist_max d);
  let dump = Counters.dump reg in
  Alcotest.(check bool) "dump names the dist" true
    (String.length dump > 0
    && String.sub dump 0 (String.length "worker.overshoot_ns") = "worker.overshoot_ns")

(* --- Chrome trace export: golden output --- *)

let test_chrome_trace_golden () =
  let spans = Span.create ~capacity_per_sink:16 () in
  let disp = Span.register spans (Span.Dispatcher 0) in
  let wrk = Span.register spans (Span.Worker 2) in
  Span.record disp ~req_id:7 ~phase:Span.Parse ~start_ns:1_000 ~dur_ns:0 ~arg:0;
  Span.record disp ~req_id:7 ~phase:Span.Dispatch ~start_ns:1_000 ~dur_ns:200 ~arg:2;
  Span.record wrk ~req_id:7 ~phase:Span.Quantum ~start_ns:1_500 ~dur_ns:800 ~arg:1;
  Span.record wrk ~req_id:7 ~phase:Span.Reply_flush ~start_ns:2_300 ~dur_ns:0 ~arg:0;
  let expected =
    "{\"traceEvents\":[\n\
     {\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"tq_sim\"}},\n\
     {\"ph\":\"M\",\"pid\":0,\"tid\":1,\"name\":\"thread_name\",\"args\":{\"name\":\"dispatcher 0\"}},\n\
     {\"ph\":\"M\",\"pid\":0,\"tid\":102,\"name\":\"thread_name\",\"args\":{\"name\":\"worker 2\"}},\n\
     {\"ph\":\"i\",\"pid\":0,\"tid\":1,\"ts\":1.000,\"s\":\"t\",\"name\":\"parse\",\"args\":{\"req\":7,\"arg\":0}},\n\
     {\"ph\":\"X\",\"pid\":0,\"tid\":1,\"ts\":1.000,\"dur\":0.200,\"name\":\"dispatch\",\"args\":{\"req\":7,\"arg\":2}},\n\
     {\"ph\":\"X\",\"pid\":0,\"tid\":102,\"ts\":1.500,\"dur\":0.800,\"name\":\"quantum\",\"args\":{\"req\":7,\"arg\":1}},\n\
     {\"ph\":\"i\",\"pid\":0,\"tid\":102,\"ts\":2.300,\"s\":\"t\",\"name\":\"reply_flush\",\"args\":{\"req\":7,\"arg\":0}}\n\
     ]}\n"
  in
  check Alcotest.string "golden chrome json" expected (Span.to_chrome ~process:"tq_sim" spans)

let test_text_dump () =
  let spans = Span.create ~capacity_per_sink:4 () in
  let sink = Span.register spans (Span.Worker 1) in
  for i = 1 to 6 do
    Span.record sink ~req_id:i ~phase:Span.Quantum ~start_ns:(i * 100) ~dur_ns:50 ~arg:0
  done;
  let s = Span.to_text spans in
  Alcotest.(check bool) "header mentions totals" true
    (String.length s > 0
    && String.sub s 0 (String.length "spans: 6 recorded, 4 in buffer (2 overwritten)")
       = "spans: 6 recorded, 4 in buffer (2 overwritten)");
  let limited = Span.to_text ~limit:2 spans in
  let lines = String.split_on_char '\n' (String.trim limited) in
  (* header + elision marker + 2 span lines, the newest two *)
  check Alcotest.int "limit keeps last spans" 4 (List.length lines);
  check Alcotest.string "elision line" "... 2 earlier spans elided" (List.nth lines 1);
  Alcotest.(check bool) "newest span last" true (contains (List.nth lines 3) "req=6");
  check Alcotest.int "limit past the buffer keeps everything" 5
    (List.length (String.split_on_char '\n' (String.trim (Span.to_text ~limit:10 spans))))

(* --- time series --- *)

let test_timeseries_csv () =
  let ts = Timeseries.create ~series:[ "queue_depth"; "busy" ] in
  Timeseries.push ts ~t_ns:10_000 [| 3.0; 2.0 |];
  Timeseries.push ts ~t_ns:20_000 [| 1.0; 4.0 |];
  check Alcotest.int "length" 2 (Timeseries.length ts);
  check Alcotest.(list string) "names" [ "queue_depth"; "busy" ] (Timeseries.names ts);
  let t_ns, row = Timeseries.get ts 1 in
  check Alcotest.int "get time" 20_000 t_ns;
  check (Alcotest.float 1e-9) "get value" 4.0 row.(1);
  check Alcotest.string "csv"
    "t_ns,queue_depth,busy\n10000,3,2\n20000,1,4\n" (Timeseries.to_csv ts);
  Alcotest.check_raises "width mismatch"
    (Invalid_argument "Timeseries.push: row width mismatch") (fun () ->
      Timeseries.push ts ~t_ns:30_000 [| 1.0 |])

let test_timeseries_growth () =
  let ts = Timeseries.create ~series:[ "v" ] in
  for i = 1 to 1_000 do
    Timeseries.push ts ~t_ns:i [| float_of_int i |]
  done;
  check Alcotest.int "grows past initial capacity" 1_000 (Timeseries.length ts);
  let t_ns, row = Timeseries.get ts 999 in
  check Alcotest.int "last time" 1_000 t_ns;
  check (Alcotest.float 1e-9) "last value" 1_000.0 row.(0)

(* --- Latency: the HDR-style registry behind tq_load --- *)

let test_latency_percentiles () =
  let reg = Latency.create () in
  let r = Latency.recorder reg "rpc" in
  for i = 1 to 10_000 do
    Latency.record r (i * 1_000)
  done;
  check Alcotest.int "count" 10_000 (Latency.count r);
  let within pct expect got =
    let err = Float.abs (float_of_int got -. expect) /. expect in
    if err > 0.05 then
      Alcotest.failf "%s: expected ~%.0f, got %d (err %.3f)" pct expect got err
  in
  within "p50" 5_000_000.0 (Latency.percentile r 50.0);
  within "p99" 9_900_000.0 (Latency.percentile r 99.0);
  within "p99.9" 9_990_000.0 (Latency.percentile r 99.9);
  within "mean" 5_000_500.0 (int_of_float (Latency.mean r));
  within "max" 10_000_000.0 (Latency.max_ns r)

let test_latency_registry () =
  let reg = Latency.create () in
  let a = Latency.recorder reg "alpha" in
  let b = Latency.recorder reg "beta" in
  Latency.record a 10;
  Latency.record b 20;
  Latency.record b 30;
  check Alcotest.bool "recorder is cached" true (Latency.recorder reg "alpha" == a);
  check
    Alcotest.(list string)
    "sorted names" [ "alpha"; "beta" ]
    (List.map fst (Latency.to_alist reg));
  check Alcotest.int "empty percentile" 0 (Latency.percentile (Latency.recorder reg "nope") 50.0);
  Latency.clear b;
  check Alcotest.int "cleared" 0 (Latency.count b);
  check Alcotest.int "other survives clear" 1 (Latency.count a);
  Latency.clear_all reg;
  check Alcotest.int "clear_all" 0 (Latency.count a)

let test_latency_clamps () =
  let reg = Latency.create ~max_ns:1_000 () in
  let r = Latency.recorder reg "clamp" in
  Latency.record r (-5);
  Latency.record r 1_000_000;
  check Alcotest.int "count" 2 (Latency.count r);
  check Alcotest.bool "oversized sample clamps to max" true (Latency.max_ns r <= 1_000);
  let json = Latency.to_json reg in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "json mentions recorder" true (contains json "\"clamp\"")

(* --- latency: percentile properties + the debug owner check --- *)

let test_latency_percentile_props =
  qtest "latency percentile monotone and sample-bounded"
    QCheck.(list_of_size Gen.(int_range 1 120) (int_range 0 2_000_000))
    (fun samples ->
      (* the shrinker may drop below the generator's size floor *)
      QCheck.assume (samples <> []);
      let reg = Latency.create ~max_ns:4_000_000 () in
      let r = Latency.recorder reg "prop" in
      List.iter (Latency.record r) samples;
      let lo = List.fold_left min max_int samples in
      let hi = List.fold_left max 0 samples in
      let ps = [ 0.0; 10.0; 25.0; 50.0; 75.0; 90.0; 99.0; 99.9; 100.0 ] in
      let vals = List.map (Latency.percentile r) ps in
      let rec monotone = function
        | a :: (b :: _ as rest) -> a <= b && monotone rest
        | _ -> true
      in
      (* a percentile is the containing bucket's lower bound, so it may
         undershoot the smallest sample by one bucket width (1/32
         relative error); it never exceeds the largest sample *)
      let lo_bound = lo - (lo / 32) - 1 in
      monotone vals && List.for_all (fun v -> v >= lo_bound && v <= hi) vals)

let test_latency_owner_check () =
  let reg = Latency.create () in
  let r = Latency.recorder reg "owned" in
  Fun.protect
    ~finally:(fun () -> Latency.set_owner_check false)
    (fun () ->
      Latency.set_owner_check true;
      Latency.record r 10;
      let off_domain =
        Domain.spawn (fun () ->
            match Latency.record r 20 with
            | () -> `Recorded
            | exception Invalid_argument _ -> `Raised)
      in
      (match Domain.join off_domain with
      | `Raised -> ()
      | `Recorded -> Alcotest.fail "off-domain record must raise under the owner check");
      let adopter =
        Domain.spawn (fun () ->
            Latency.adopt r;
            Latency.record r 30;
            Latency.count r)
      in
      check Alcotest.int "adopt legitimises the hand-off" 2 (Domain.join adopter);
      (* ownership moved with the adopt: the creating domain is now the
         foreign one *)
      (match Latency.record r 40 with
      | () -> Alcotest.fail "creator must be rejected after the hand-off"
      | exception Invalid_argument _ -> ());
      Latency.adopt r;
      Latency.record r 50;
      check Alcotest.int "only owner records landed" 3 (Latency.count r))

(* --- multi-domain counter aggregation --- *)

let test_counters_merged () =
  let a = Counters.create () and b = Counters.create () in
  Counters.add (Counters.counter a "serve.parsed") 5;
  Counters.add (Counters.counter b "serve.parsed") 7;
  Counters.add (Counters.counter b "serve.shed") 2;
  Counters.set (Counters.gauge a "ring.occupancy") 3.0;
  Counters.set (Counters.gauge b "ring.occupancy") 4.5;
  List.iter (Counters.observe (Counters.dist a "quantum_ns")) [ 1; 2; 100 ];
  List.iter (Counters.observe (Counters.dist b "quantum_ns")) [ 3; 200 ];
  let m = Counters.merged [ a; b ] in
  check Alcotest.int "counters sum" 12 (Counters.find_count m "serve.parsed");
  check Alcotest.int "one-sided counter survives" 2 (Counters.find_count m "serve.shed");
  (match Counters.find m "ring.occupancy" with
  | Some (Counters.Gauge g) ->
      check (Alcotest.float 1e-9) "gauges sum to the system total" 7.5 (Counters.value g)
  | _ -> Alcotest.fail "merged gauge missing");
  (match Counters.find m "quantum_ns" with
  | Some (Counters.Dist d) ->
      check Alcotest.int "dist counts sum" 5 (Counters.dist_count d);
      check Alcotest.int "dist sums add" 306 (Counters.dist_sum d);
      check Alcotest.int "max of max" 200 (Counters.dist_max d)
  | _ -> Alcotest.fail "merged dist missing");
  (* the merge is a snapshot, not an alias *)
  Counters.incr (Counters.counter a "serve.parsed");
  check Alcotest.int "snapshot is a copy" 12 (Counters.find_count m "serve.parsed");
  let c = Counters.create () in
  Counters.set (Counters.gauge c "serve.shed") 1.0;
  Alcotest.(check bool) "kind clash across registries rejected" true
    (try
       ignore (Counters.merged [ b; c ]);
       false
     with Invalid_argument _ -> true)

(* --- cross-domain request spans --- *)

let test_span_record_and_merge () =
  let spans = Span.create ~capacity_per_sink:4 () in
  Alcotest.(check bool) "enabled" true (Span.enabled spans);
  let disp = Span.register spans (Span.Dispatcher 0) in
  let wrk = Span.register spans (Span.Worker 1) in
  Span.record disp ~req_id:1 ~phase:Span.Dispatch ~start_ns:100 ~dur_ns:10 ~arg:1;
  Span.record wrk ~req_id:1 ~phase:Span.Quantum ~start_ns:150 ~dur_ns:40 ~arg:1;
  Span.record disp ~req_id:2 ~phase:Span.Dispatch ~start_ns:150 ~dur_ns:5 ~arg:0;
  Span.record disp ~req_id:1 ~phase:Span.Reply_flush ~start_ns:300 ~dur_ns:8 ~arg:3;
  check Alcotest.int "total" 4 (Span.total spans);
  check Alcotest.int "nothing dropped" 0 (Span.dropped spans);
  let merged = Span.merge spans in
  check Alcotest.int "merge keeps everything" 4 (List.length merged);
  check
    Alcotest.(list int)
    "timeline sorted by start" [ 100; 150; 150; 300 ]
    (List.map (fun (r : Span.record) -> r.Span.start_ns) merged);
  (* the tie at 150: stable sort keeps the earlier-registered sink's
     record (the dispatcher's) ahead of the worker's *)
  (match merged with
  | _ :: (second : Span.record) :: _ ->
      check Alcotest.bool "ties keep registration order" true
        (second.Span.lane = Span.Dispatcher 0)
  | _ -> Alcotest.fail "merge lost records");
  (* one request id stitches across both lanes *)
  let lanes_of_req1 =
    List.filter_map
      (fun (r : Span.record) -> if r.Span.req_id = 1 then Some r.Span.lane else None)
      merged
  in
  Alcotest.(check bool) "req 1 spans both domains" true
    (List.mem (Span.Dispatcher 0) lanes_of_req1
    && List.mem (Span.Worker 1) lanes_of_req1)

let test_span_overwrite_and_null () =
  (* 2 fits the first chunk; 3000 wraps only after growing four times
     (from 256 slots to 512, 1024, 2048, then to 3000) *)
  List.iter
    (fun (c, n) ->
      let spans = Span.create ~capacity_per_sink:c () in
      let sink = Span.register spans (Span.Worker 0) in
      for i = 1 to n do
        Span.record sink ~req_id:i ~phase:Span.Quantum ~start_ns:(i * 10) ~dur_ns:1 ~arg:i
      done;
      let tag what = Printf.sprintf "capacity %d: %s" c what in
      check Alcotest.int (tag "total counts everything") n (Span.total spans);
      check Alcotest.int (tag "dropped = overwritten") (n - c) (Span.dropped spans);
      check
        Alcotest.(list int)
        (tag "the newest records survive, in order")
        (List.init c (fun k -> n - c + 1 + k))
        (List.map
           (fun (r : Span.record) ->
             if r.Span.arg <> r.Span.req_id then Alcotest.fail (tag "columns out of step");
             r.Span.req_id)
           (Span.merge spans)))
    [ (2, 5); (3000, 7000) ];
  (* the disabled collection: registration hands out the null sink and
     recording is a no-op *)
  Alcotest.(check bool) "null disabled" false (Span.enabled Span.null);
  let ns = Span.register Span.null (Span.Worker 9) in
  Span.record ns ~req_id:1 ~phase:Span.Shed ~start_ns:0 ~dur_ns:0 ~arg:0;
  check Alcotest.int "null stores nothing" 0 (Span.total Span.null);
  check Alcotest.int "null merges empty" 0 (List.length (Span.merge Span.null))

let test_span_chrome_json () =
  let spans = Span.create ~capacity_per_sink:8 () in
  let disp = Span.register spans (Span.Dispatcher 0) in
  let wrk = Span.register spans (Span.Worker 2) in
  Span.record disp ~req_id:7 ~phase:Span.Accept ~start_ns:1_000 ~dur_ns:0 ~arg:4;
  Span.record disp ~req_id:7 ~phase:Span.Dispatch ~start_ns:1_200 ~dur_ns:300 ~arg:2;
  Span.record wrk ~req_id:7 ~phase:Span.Quantum ~start_ns:1_600 ~dur_ns:900 ~arg:1;
  let json = Span.to_chrome ~process:"tq_serve" spans in
  json_well_formed "span chrome json" json;
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "trace mentions %s" needle)
        true (contains json needle))
    [
      "\"tq_serve\"";
      "thread_name";
      "\"dispatcher 0\"";
      "\"worker 2\"";
      "\"ph\":\"X\"";
      "\"ph\":\"i\"";
      "\"name\":\"quantum\"";
      "\"req\":7";
    ]

let test_chrome_export_parses () =
  (* the golden test pins exact bytes; this one checks the exporter emits
     structurally valid JSON under wraparound and mixed lanes *)
  let spans = Span.create ~capacity_per_sink:4 () in
  let sinks = [| Span.register spans Span.Global; Span.register spans (Span.Worker 1);
                 Span.register spans (Span.Worker 2) |] in
  for i = 1 to 27 do
    Span.record sinks.(i mod 3) ~req_id:i ~phase:Span.Quantum ~start_ns:(i * 100)
      ~dur_ns:(i mod 2 * 50) ~arg:0
  done;
  check Alcotest.int "every sink wrapped" 15 (Span.dropped spans);
  json_well_formed "chrome export" (Span.to_chrome ~process:"tq_sim" spans);
  json_well_formed "empty export" (Span.to_chrome ~process:"tq_sim" (Span.create ()))

(* --- prometheus exposition --- *)

let count_occurrences hay needle =
  let nl = String.length needle in
  let rec go i acc =
    if i + nl > String.length hay then acc
    else if String.sub hay i nl = needle then go (i + nl) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let test_expo_render () =
  let a = Counters.create () and b = Counters.create () in
  Counters.add (Counters.counter a "serve.parsed") 5;
  Counters.add (Counters.counter b "serve.parsed") 7;
  Counters.set (Counters.gauge a "ring.occupancy") 3.5;
  List.iter (Counters.observe (Counters.dist b "gap ns")) [ 1; 2; 3; 9 ];
  let text =
    Expo.render
      [ ([ ("role", "dispatcher") ], a); ([ ("role", "worker"); ("worker", "0") ], b) ]
  in
  check Alcotest.int "TYPE emitted once per shared name" 1
    (count_occurrences text "# TYPE tq_serve_parsed_total counter");
  check Alcotest.int "both label sets render" 2
    (count_occurrences text "tq_serve_parsed_total{");
  Alcotest.(check bool) "counter samples carry _total and labels" true
    (contains text "tq_serve_parsed_total{role=\"dispatcher\"} 5\n"
    && contains text "tq_serve_parsed_total{role=\"worker\",worker=\"0\"} 7\n");
  Alcotest.(check bool) "gauge renders without suffix" true
    (contains text "tq_ring_occupancy{role=\"dispatcher\"} 3.5\n");
  (* dist 1,2,3,9 -> cumulative power-of-two buckets: le=1 holds 1,
     le=3 holds 1,2,3, the 9 lands in le=15, +Inf sees all four *)
  Alcotest.(check bool) "histogram buckets are cumulative" true
    (contains text "# TYPE tq_gap_ns histogram"
    && contains text "tq_gap_ns_bucket{role=\"worker\",worker=\"0\",le=\"1\"} 1\n"
    && contains text "tq_gap_ns_bucket{role=\"worker\",worker=\"0\",le=\"3\"} 3\n"
    && contains text "tq_gap_ns_bucket{role=\"worker\",worker=\"0\",le=\"15\"} 4\n"
    && contains text "tq_gap_ns_bucket{role=\"worker\",worker=\"0\",le=\"+Inf\"} 4\n"
    && contains text "tq_gap_ns_sum{role=\"worker\",worker=\"0\"} 15\n"
    && contains text "tq_gap_ns_count{role=\"worker\",worker=\"0\"} 4\n")

let test_expo_latency () =
  let lat = Latency.create () in
  let r = Latency.recorder lat "echo" in
  for i = 1 to 100 do
    Latency.record r (i * 1_000)
  done;
  let text = Expo.render_latency ~name:"sojourn_ns" ~labels:[ ("role", "server") ] lat in
  Alcotest.(check bool) "histogram TYPE header" true
    (contains text "# TYPE tq_sojourn_ns histogram");
  Alcotest.(check bool) "histogram +Inf bucket" true
    (contains text "tq_sojourn_ns_bucket{role=\"server\",class=\"echo\",le=\"+Inf\"} 100\n");
  Alcotest.(check bool) "quantiles summary TYPE header" true
    (contains text "# TYPE tq_sojourn_ns_quantiles summary");
  List.iter
    (fun q ->
      Alcotest.(check bool)
        (Printf.sprintf "quantile %s present" q)
        true
        (contains text
           (Printf.sprintf
              "tq_sojourn_ns_quantiles{role=\"server\",class=\"echo\",quantile=%S} " q)))
    [ "0.5"; "0.9"; "0.99"; "0.999" ];
  Alcotest.(check bool) "count line" true
    (contains text "tq_sojourn_ns_count{role=\"server\",class=\"echo\"} 100\n");
  Alcotest.(check (list string)) "exposition lints clean" [] (Expo.lint text)

(* --- SLO monitor --- *)

let sec s = int_of_float (s *. 1e9)

let test_slo_burn_rate () =
  let obj = { Slo.name = "p99"; latency_ns = 1_000_000; goodput = 0.9 } in
  let t = Slo.create ~window_s:10.0 ~buckets:10 ~now_ns:0 [ obj ] in
  (match Slo.report ~now_ns:0 t with
  | [ rep ] ->
      check Alcotest.int "empty window" 0 rep.Slo.window_total;
      check (Alcotest.float 1e-9) "vacuous compliance" 1.0 rep.Slo.compliance;
      check (Alcotest.float 1e-9) "no burn without traffic" 0.0 rep.Slo.burn_rate
  | _ -> Alcotest.fail "one objective, one report");
  (* 80 good, then 10 late + 5 shed + 5 errored: compliance 0.8, and a
     10% budget burning at (1 - 0.8) / (1 - 0.9) = 2x *)
  for _ = 1 to 80 do
    Slo.observe t ~now_ns:(sec 2.0) (`Ok 500_000)
  done;
  for _ = 1 to 10 do
    Slo.observe t ~now_ns:(sec 5.0) (`Ok 2_000_000)
  done;
  for _ = 1 to 5 do
    Slo.observe t ~now_ns:(sec 5.0) `Shed
  done;
  for _ = 1 to 5 do
    Slo.observe t ~now_ns:(sec 5.0) `Error
  done;
  (match Slo.report ~now_ns:(sec 9.5) t with
  | [ rep ] ->
      check Alcotest.int "window total" 100 rep.Slo.window_total;
      check Alcotest.int "window good" 80 rep.Slo.window_good;
      check (Alcotest.float 1e-9) "compliance" 0.8 rep.Slo.compliance;
      check (Alcotest.float 1e-6) "burn rate" 2.0 rep.Slo.burn_rate
  | _ -> Alcotest.fail "one objective, one report");
  (* the per-bucket series: the all-good bucket at -7s, the all-bad one
     at -4s, oldest first *)
  (match Slo.window_series ~now_ns:(sec 9.5) t "p99" with
  | [ (a_age, a_frac); (b_age, b_frac) ] ->
      Alcotest.(check bool) "ages oldest-first and non-positive" true
        (a_age < b_age && b_age <= 0.0);
      check (Alcotest.float 1e-9) "good bucket fraction" 1.0 a_frac;
      check (Alcotest.float 1e-9) "bad bucket fraction" 0.0 b_frac
  | s -> Alcotest.failf "expected 2 live buckets, got %d" (List.length s));
  check Alcotest.(list (pair (float 1e-9) (float 1e-9))) "unknown objective" []
    (Slo.window_series ~now_ns:(sec 9.5) t "nope");
  (* slide the window: the good bucket expires first, leaving pure
     badness (burn 10x, a breach), then everything ages out *)
  (match Slo.report ~now_ns:(sec 14.0) t with
  | [ rep ] ->
      check Alcotest.int "good bucket expired" 20 rep.Slo.window_total;
      check (Alcotest.float 1e-9) "compliance collapses" 0.0 rep.Slo.compliance;
      check (Alcotest.float 1e-6) "burning hard" 10.0 rep.Slo.burn_rate
  | _ -> Alcotest.fail "one objective, one report");
  Alcotest.(check bool) "render flags the breach" true
    (contains (Slo.render ~now_ns:(sec 14.0) t) "BREACH");
  (match Slo.report ~now_ns:(sec 25.0) t with
  | [ rep ] ->
      check Alcotest.int "window fully aged out" 0 rep.Slo.window_total;
      check (Alcotest.float 1e-9) "back to vacuous compliance" 1.0 rep.Slo.compliance
  | _ -> Alcotest.fail "one objective, one report");
  Alcotest.(check bool) "render notes the empty window" true
    (contains (Slo.render ~now_ns:(sec 25.0) t) "(no traffic)")

let test_slo_validation () =
  let bad goodput latency_ns =
    try
      ignore
        (Slo.create ~now_ns:0 [ { Slo.name = "x"; latency_ns; goodput } ]);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "goodput 1.0 rejected" true (bad 1.0 1_000);
  Alcotest.(check bool) "goodput 0.0 rejected" true (bad 0.0 1_000);
  Alcotest.(check bool) "non-positive latency rejected" true (bad 0.9 0);
  Alcotest.(check bool) "empty window rejected" true
    (try
       ignore (Slo.create ~window_s:0.0 ~now_ns:0 []);
       false
     with Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "counter registry" `Quick test_counters_registry;
    Alcotest.test_case "overshoot dist" `Quick test_counters_dist;
    Alcotest.test_case "chrome trace golden" `Quick test_chrome_trace_golden;
    Alcotest.test_case "text dump" `Quick test_text_dump;
    Alcotest.test_case "timeseries csv" `Quick test_timeseries_csv;
    Alcotest.test_case "timeseries growth" `Quick test_timeseries_growth;
    Alcotest.test_case "latency percentiles" `Quick test_latency_percentiles;
    Alcotest.test_case "latency registry" `Quick test_latency_registry;
    Alcotest.test_case "latency clamps + json" `Quick test_latency_clamps;
    test_latency_percentile_props;
    Alcotest.test_case "latency owner check" `Quick test_latency_owner_check;
    Alcotest.test_case "counters merged" `Quick test_counters_merged;
    Alcotest.test_case "span record + merge" `Quick test_span_record_and_merge;
    Alcotest.test_case "span overwrite + null" `Quick test_span_overwrite_and_null;
    Alcotest.test_case "span chrome json" `Quick test_span_chrome_json;
    Alcotest.test_case "chrome export parses" `Quick test_chrome_export_parses;
    Alcotest.test_case "expo render" `Quick test_expo_render;
    Alcotest.test_case "expo latency summary" `Quick test_expo_latency;
    Alcotest.test_case "slo burn rate" `Quick test_slo_burn_rate;
    Alcotest.test_case "slo validation" `Quick test_slo_validation;
  ]

(* --- Profile: per-request stage decomposition --- *)

module Profile = Tq_obs.Profile
module Gc_events = Tq_obs.Gc_events

let sp ?(req = 0) ?(lane = Span.Dispatcher 0) ?(arg = 0) phase start_ns dur_ns =
  { Span.req_id = req; phase; lane; start_ns; dur_ns; arg }

(* One synthetic request with every boundary placed by explicit deltas,
   in pipeline order.  Returns the records plus the expected per-stage
   nanoseconds, so tests can assert the telescoping exactly. *)
let synthetic_request ~req ~p0 ~parse ~dispatch ~hop ~wait ~d0 ~gap ~d1 ~flush =
  let t0 = p0 + parse in
  let t1 = t0 + dispatch in
  let t2 = t1 + hop in
  let q0 = t2 + wait in
  let q1 = q0 + d0 + gap in
  let last_end = q1 + d1 in
  let records =
    [
      sp ~req Span.Parse p0 parse;
      sp ~req Span.Dispatch t0 dispatch;
      sp ~req ~lane:(Span.Worker 0) Span.Ring_hop t2 0;
      sp ~req ~lane:(Span.Worker 0) Span.Quantum q0 d0;
      sp ~req ~lane:(Span.Worker 0) Span.Quantum q1 d1;
      sp ~req Span.Reply_flush last_end flush;
    ]
  in
  let expected =
    [
      (Profile.S_parse, parse);
      (Profile.S_dispatch, dispatch);
      (Profile.S_ring_hop, hop);
      (Profile.S_first_run_wait, wait);
      (Profile.S_service, d0 + d1);
      (Profile.S_preempt_overhead, gap);
      (Profile.S_reply_flush, flush);
    ]
  in
  (records, expected, last_end + flush - p0)

let test_profile_exact_decomposition () =
  let n = 3 in
  let per_req =
    List.init n (fun i ->
        synthetic_request ~req:i ~p0:(1_000_000 * i) ~parse:500 ~dispatch:300
          ~hop:(100 + i) ~wait:4_000 ~d0:5_000 ~gap:(250 * i) ~d1:3_000 ~flush:600)
  in
  let records = List.concat_map (fun (r, _, _) -> r) per_req in
  let p = Profile.of_records records in
  check Alcotest.int "all requests decomposed" n (Profile.requests p);
  check Alcotest.int "all exact" n (Profile.exact p);
  check (Alcotest.float 1e-12) "zero relative error" 0.0 (Profile.sum_rel_error p);
  Alcotest.(check bool) "invariant holds" true (Profile.invariant_ok p);
  check Alcotest.int "no sheds" 0 (Profile.sheds p);
  check Alcotest.int "nothing unattributed" 0 (Profile.unattributed_count p);
  check Alcotest.int "nothing in flight" 0 (Profile.incomplete p);
  (* per-stage sums are the sum of the per-request deltas *)
  List.iter
    (fun stage ->
      let expected =
        List.fold_left (fun acc (_, exp, _) -> acc + List.assq stage exp) 0 per_req
      in
      check Alcotest.int
        (Printf.sprintf "stage %s sum" (Profile.stage_name stage))
        expected
        (Profile.stage_sum_ns p stage);
      check Alcotest.int
        (Printf.sprintf "stage %s count" (Profile.stage_name stage))
        n
        (Profile.stage_count p stage))
    Profile.stages;
  (* stage sums telescope to the sojourn, request by request *)
  let sojourns = List.fold_left (fun acc (_, _, s) -> acc + s) 0 per_req in
  let stage_total =
    List.fold_left (fun acc stage -> acc + Profile.stage_sum_ns p stage) 0 Profile.stages
  in
  check Alcotest.int "stages sum to sojourn" sojourns stage_total;
  (* the JSON and text views carry the invariant *)
  let json = Profile.to_json p in
  Alcotest.(check bool) "json has schema_version" true (contains json "\"schema_version\"");
  Alcotest.(check bool) "json has exact count" true (contains json "\"exact\": 3");
  Alcotest.(check bool) "render shows the invariant" true
    (contains (Profile.render p) "sum invariant")

let test_profile_shed_and_accept () =
  let records, _, _ =
    synthetic_request ~req:0 ~p0:0 ~parse:500 ~dispatch:300 ~hop:100 ~wait:1_000
      ~d0:2_000 ~gap:0 ~d1:0 ~flush:400
  in
  let records =
    records
    @ [
        sp ~req:(-1) Span.Accept 5_000 0;
        sp ~req:(-1) Span.Shed 6_000 750;
        sp ~req:(-1) Span.Shed 7_000 1_250;
      ]
  in
  let p = Profile.of_records records in
  check Alcotest.int "one request decomposed" 1 (Profile.requests p);
  check Alcotest.int "accepts counted apart" 1 (Profile.accepts p);
  check Alcotest.int "sheds land in the shed stage" 2 (Profile.sheds p);
  Alcotest.(check bool) "invariant untouched by sheds" true (Profile.invariant_ok p)

let test_profile_degrades_without_crashing () =
  let good, _, _ =
    synthetic_request ~req:0 ~p0:0 ~parse:500 ~dispatch:300 ~hop:100 ~wait:1_000
      ~d0:2_000 ~gap:0 ~d1:0 ~flush:400
  in
  (* duplicate Parse boundary: a ring overwrite garbled request 1 *)
  let dup, _, _ =
    synthetic_request ~req:1 ~p0:100_000 ~parse:500 ~dispatch:300 ~hop:100
      ~wait:1_000 ~d0:2_000 ~gap:0 ~d1:0 ~flush:400
  in
  let dup = sp ~req:1 Span.Parse 100_000 500 :: dup in
  (* request 2 lost its quanta entirely *)
  let missing =
    [
      sp ~req:2 Span.Parse 200_000 500;
      sp ~req:2 Span.Dispatch 200_500 300;
      sp ~req:2 ~lane:(Span.Worker 1) Span.Ring_hop 200_900 0;
      sp ~req:2 Span.Reply_flush 210_000 400;
    ]
  in
  (* request 3's reply stamp precedes its quantum: negative stage *)
  let negative =
    [
      sp ~req:3 Span.Parse 300_000 0;
      sp ~req:3 Span.Dispatch 300_500 300;
      sp ~req:3 ~lane:(Span.Worker 1) Span.Ring_hop 300_900 0;
      sp ~req:3 ~lane:(Span.Worker 1) Span.Quantum 302_000 5_000;
      sp ~req:3 Span.Reply_flush 301_000 0;
    ]
  in
  (* request 4 is still in flight: no reply yet *)
  let in_flight =
    [ sp ~req:4 Span.Parse 400_000 0; sp ~req:4 Span.Dispatch 400_500 300 ]
  in
  let p = Profile.of_records (good @ dup @ missing @ negative @ in_flight) in
  check Alcotest.int "only the clean request decomposed" 1 (Profile.requests p);
  check Alcotest.int "three degraded to unattributed" 3 (Profile.unattributed_count p);
  check Alcotest.int "in-flight counted apart" 1 (Profile.incomplete p);
  Alcotest.(check bool) "invariant over decomposed requests only" true
    (Profile.invariant_ok p);
  (* quanta arriving out of order degrade too (the fold would go negative) *)
  let reordered =
    List.map
      (fun (r : Span.record) ->
        match r.Span.phase with
        | Span.Quantum when r.Span.dur_ns = 3_000 -> { r with Span.start_ns = 0 }
        | _ -> r)
      (let r, _, _ =
         synthetic_request ~req:9 ~p0:1_000_000 ~parse:500 ~dispatch:300 ~hop:100
           ~wait:1_000 ~d0:2_000 ~gap:100 ~d1:3_000 ~flush:400
       in
       r)
  in
  let p2 = Profile.of_records reordered in
  check Alcotest.int "reordered quanta do not decompose" 0 (Profile.requests p2);
  check Alcotest.int "they land in unattributed" 1 (Profile.unattributed_count p2)

(* Property: any cross-request interleaving that preserves each
   request's own record order decomposes every request exactly.  The
   riffle below merges the per-request streams, driven by the generated
   pick list. *)
let test_profile_interleaving_prop =
  let gen =
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 12)
           (* parse, dispatch, hop, wait, d0, gap, d1, flush *)
           (tup4 (int_range 0 1000) (int_range 0 1000) (int_range 0 1000)
              (tup4 (int_range 0 1000) (int_range 0 1000) (int_range 0 1000)
                 (pair (int_range 0 1000) (int_range 0 1000)))))
        (list_of_size (Gen.int_range 0 200) (int_range 0 1_000_000)))
  in
  qtest ~count:100 "profile: order-preserving interleavings stay exact" gen
    (fun (reqs, picks) ->
      let streams =
        List.mapi
          (fun i (parse, dispatch, hop, (wait, d0, gap, (d1, flush))) ->
            let records, _, _ =
              synthetic_request ~req:i ~p0:(10_000_000 * i) ~parse ~dispatch ~hop
                ~wait ~d0 ~gap ~d1 ~flush
            in
            ref records)
          reqs
      in
      let n = List.length streams in
      let arr = Array.of_list streams in
      let out = ref [] in
      let picks = ref (if picks = [] then [ 0 ] else picks) in
      let next_pick () =
        match !picks with
        | [] -> 0
        | p :: rest ->
            picks := (if rest = [] then [ p + 1 ] else rest);
            p
      in
      let remaining = ref (List.fold_left (fun a s -> a + List.length !s) 0 streams) in
      while !remaining > 0 do
        let start = next_pick () mod n in
        let rec find i =
          let idx = (start + i) mod n in
          match !(arr.(idx)) with
          | [] -> find (i + 1)
          | r :: rest ->
              arr.(idx) := rest;
              out := r :: !out;
              decr remaining
        in
        find 0
      done;
      let p = Profile.of_records (List.rev !out) in
      Profile.requests p = n && Profile.exact p = n
      && Profile.unattributed_count p = 0
      && Profile.invariant_ok p)

(* --- Gc_events: the Runtime_events consumer --- *)

let test_gc_events_smoke () =
  let spans = Span.create () in
  let g = Gc_events.start ~spans () in
  (* churn the minor heap so the consumer has pauses to report *)
  let junk = ref [] in
  for i = 1 to 5 do
    junk := [];
    for j = 1 to 50_000 do
      junk := (i * j) :: !junk
    done;
    Gc.minor ()
  done;
  Sys.opaque_identity !junk |> ignore;
  Gc_events.stop g;
  let c = Gc_events.counters g in
  Alcotest.(check bool) "minor pauses observed" true
    (Counters.find_count c "gc.minor_pauses" > 0);
  Alcotest.(check bool) "this domain's pause clock advanced" true
    (Gc_events.self_pause_ns g > 0);
  let records = Span.merge spans in
  Alcotest.(check bool) "gc spans ride the gc lane" true
    (List.exists
       (fun (r : Span.record) ->
         match r.Span.lane with
         | Span.Gc _ -> r.Span.phase = Span.Gc_minor || r.Span.phase = Span.Gc_major
         | _ -> false)
       records);
  (* stop is idempotent *)
  Gc_events.stop g

(* Gc_events publishes Runtime_events' own stamps, untranslated, so they
   must already be on the live clock: a forced minor collection's pause
   span lies between two [Time_unit.now_ns] reads around it. *)
let test_gc_events_share_the_live_clock () =
  let spans = Span.create () in
  let g = Gc_events.start ~spans () in
  let t0 = Tq_util.Time_unit.now_ns () in
  Gc.minor ();
  let t1 = Tq_util.Time_unit.now_ns () in
  Gc_events.stop g;
  let self = (Domain.self () :> int) in
  let minors =
    List.filter
      (fun (r : Span.record) -> r.Span.lane = Span.Gc self && r.Span.phase = Span.Gc_minor)
      (Span.merge spans)
  in
  let inside (r : Span.record) = t0 <= r.Span.start_ns && r.Span.start_ns + r.Span.dur_ns <= t1 in
  if not (List.exists inside minors) then
    Alcotest.failf "no minor pause inside [%d, %d]; pauses at %s" t0 t1
      (String.concat ", "
         (List.map (fun (r : Span.record) -> string_of_int r.Span.start_ns) minors))

let profile_suite =
  [
    Alcotest.test_case "profile exact decomposition" `Quick test_profile_exact_decomposition;
    Alcotest.test_case "profile shed + accept" `Quick test_profile_shed_and_accept;
    Alcotest.test_case "profile degrades gracefully" `Quick test_profile_degrades_without_crashing;
    test_profile_interleaving_prop;
    Alcotest.test_case "gc events smoke" `Quick test_gc_events_smoke;
    Alcotest.test_case "gc events share the live clock" `Quick
      test_gc_events_share_the_live_clock;
  ]

let suite = suite @ profile_suite

(* ------------------------------------------------------------------ *)
(* Tail: the always-on slow-request reservoir                          *)
(* ------------------------------------------------------------------ *)

module Tail = Tq_obs.Tail

let no_stages = Array.make (List.length Profile.stages) 0

let offer ?(now = 1) ?(worker = 0) ?(quantum = 100_000) ?(cap = -1) ?(inj = 0)
    ?(stages = no_stages) ?(quanta = 1) ?(stalls = 0) ?(gc_pause_ns = 0) t ~seq ~sojourn =
  Tail.offer t ~now_ns:now ~seq ~class_idx:0 ~worker ~sojourn_ns:sojourn ~quantum_ns:quantum
    ~cap ~inject_depth:inj ~stages ~quanta ~stalls ~gc_pause_ns

let test_tail_disabled_is_inert () =
  Alcotest.(check bool) "null reservoir disabled" false (Tail.enabled Tail.null);
  for i = 1 to 100 do
    offer Tail.null ~seq:i ~sojourn:(i * 1_000)
  done;
  check Alcotest.int "nothing offered" 0 (Tail.offered Tail.null);
  check Alcotest.int "nothing retained" 0 (Tail.retained Tail.null);
  Alcotest.(check bool) "no dossiers" true (Tail.top Tail.null ~limit:10 = [])

let test_tail_admit_evict_floor () =
  let t = Tail.create ~k:4 () in
  List.iteri (fun i s -> offer t ~seq:i ~sojourn:s) [ 10; 20; 30; 40 ];
  check Alcotest.int "reservoir filled" 4 (Tail.retained t);
  (* the common case: a fast request bounces off the floor *)
  offer t ~seq:100 ~sojourn:5;
  check Alcotest.int "fast request rejected" 4 (Tail.retained t);
  check Alcotest.int "admitted only the four" 4 (Tail.admitted t);
  (* a slower one evicts the current minimum *)
  offer t ~seq:101 ~sojourn:50;
  let tops = List.map (fun e -> e.Tail.e_sojourn_ns) (Tail.entries t) in
  Alcotest.(check (list int)) "slowest-first, min evicted" [ 50; 40; 30; 20 ] tops;
  check Alcotest.int "offered counts everything" 6 (Tail.offered t);
  (* top ~limit truncates from the slow end *)
  let top2 = List.map (fun e -> e.Tail.e_seq) (Tail.top t ~limit:2) in
  Alcotest.(check (list int)) "top 2 by sojourn" [ 101; 3 ] top2

let test_tail_window_roll () =
  let t = Tail.create ~k:2 ~window_ns:100 () in
  offer t ~now:10 ~seq:1 ~sojourn:500;
  (* next window: the old top-K survives as the previous window *)
  offer t ~now:200 ~seq:2 ~sojourn:300;
  let seqs = List.map (fun e -> e.Tail.e_seq) (Tail.entries t) in
  Alcotest.(check (list int)) "both windows retained" [ 1; 2 ] seqs;
  (* a second roll forgets the first window entirely *)
  offer t ~now:400 ~seq:3 ~sojourn:100;
  let seqs = List.sort compare (List.map (fun e -> e.Tail.e_seq) (Tail.entries t)) in
  Alcotest.(check (list int)) "window 1 aged out" [ 2; 3 ] seqs

let test_tail_breach_ring () =
  let t = Tail.create ~k:2 ~threshold_ns:1_000 () in
  (* fill the top-K with slow requests so the floor is high *)
  offer t ~seq:1 ~sojourn:5_000;
  offer t ~seq:2 ~sojourn:6_000;
  (* below the floor but over the threshold: retained via the breach ring *)
  offer t ~seq:3 ~sojourn:1_500;
  let breached =
    List.filter (fun e -> e.Tail.e_breach) (Tail.entries t)
    |> List.map (fun e -> e.Tail.e_seq)
    |> List.sort compare
  in
  Alcotest.(check (list int)) "all three breach the threshold" [ 1; 2; 3 ] breached;
  check Alcotest.int "breach kept despite losing the floor race" 3 (Tail.retained t);
  (* under the threshold and under the floor: gone *)
  offer t ~seq:4 ~sojourn:500;
  check Alcotest.int "fast request still rejected" 3 (Tail.retained t)

(* A retained entry is a complete dossier: the stages, quanta, stalls
   and GC pause time offered with it, telescoping to its sojourn. *)
let test_tail_dossier_exactness () =
  let _, expected, sojourn =
    synthetic_request ~req:7 ~p0:1_000 ~parse:500 ~dispatch:300 ~hop:100
      ~wait:4_000 ~d0:5_000 ~gap:250 ~d1:3_000 ~flush:600
  in
  let stages = Array.of_list (List.map snd expected) in
  let t = Tail.create ~k:4 () in
  offer t ~now:(1_000 + sojourn) ~seq:7 ~sojourn ~inj:3 ~stages ~quanta:2 ~stalls:1
    ~gc_pause_ns:300;
  (* the offered array is copied: reusing it cannot rewrite the dossier *)
  Array.fill stages 0 (Array.length stages) 0;
  match Tail.top t ~limit:10 with
  | [ e ] ->
      check Alcotest.int "stages telescope to the sojourn" sojourn
        (Array.fold_left ( + ) 0 e.Tail.e_stages);
      List.iteri
        (fun i (stage, v) ->
          check Alcotest.int (Profile.stage_name stage) v e.Tail.e_stages.(i))
        expected;
      check Alcotest.int "two quanta" 2 e.Tail.e_quanta;
      check Alcotest.int "one stall" 1 e.Tail.e_stalls;
      check Alcotest.int "gc pause time" 300 e.Tail.e_gc_pause_ns;
      check Alcotest.int "inject depth sampled" 3 e.Tail.e_inject_depth;
      (* the JSON view is well-formed and carries the stage map *)
      let json = Tail.dossiers_json t [ e ] in
      json_well_formed "dossiers json" json;
      Alcotest.(check bool) "json has stages" true (contains json "\"stages_ns\"");
      Alcotest.(check bool) "json stage sum is the sojourn" true
        (contains json (Printf.sprintf "\"stage_sum_ns\": %d" sojourn));
      Alcotest.(check bool) "json arrival stamp" true (contains json "\"t0_ns\": 1000");
      (* the table renders the stage columns *)
      let txt = Tail.render ~class_name:(fun _ -> "echo") [ e ] in
      Alcotest.(check bool) "render mentions the class" true (contains txt "echo")
  | es -> Alcotest.failf "expected one dossier, got %d" (List.length es)

let test_tail_outlier_trace_filter () =
  let keep, _, s_keep =
    synthetic_request ~req:1 ~p0:0 ~parse:500 ~dispatch:300 ~hop:100 ~wait:1_000
      ~d0:2_000 ~gap:0 ~d1:0 ~flush:400
  in
  let drop, _, _ =
    synthetic_request ~req:2 ~p0:1_000_000 ~parse:500 ~dispatch:300 ~hop:100
      ~wait:1_000 ~d0:2_000 ~gap:0 ~d1:0 ~flush:400
  in
  let gc_in = sp ~req:(-1) ~lane:(Span.Gc 0) Span.Gc_minor 1_000 50 in
  let gc_out = sp ~req:(-1) ~lane:(Span.Gc 0) Span.Gc_minor 5_000_000 50 in
  let records = keep @ drop @ [ gc_in; gc_out ] in
  let t = Tail.create ~k:1 () in
  (* only request 1 is retained *)
  offer t ~now:s_keep ~seq:1 ~sojourn:s_keep;
  let kept = Tail.filter_records t records in
  Alcotest.(check bool) "retained request's spans kept" true
    (List.exists (fun (r : Span.record) -> r.Span.req_id = 1) kept);
  Alcotest.(check bool) "other request's spans dropped" false
    (List.exists (fun (r : Span.record) -> r.Span.req_id = 2) kept);
  Alcotest.(check bool) "overlapping gc pause kept" true
    (List.exists
       (fun (r : Span.record) ->
         r.Span.phase = Span.Gc_minor && r.Span.start_ns = 1_000)
       kept);
  Alcotest.(check bool) "distant gc pause dropped" false
    (List.exists (fun (r : Span.record) -> r.Span.start_ns = 5_000_000) kept);
  json_well_formed "outlier chrome json" (Tail.to_chrome t records)

(* Satellite: Counters.merged under real cross-domain concurrency.
   Each domain owns one registry (the single-writer rule) and bumps its
   counter a known number of times; merges taken mid-run never exceed
   the final total (no double counting), and the post-join merge
   conserves the sum exactly. *)
let test_counters_merged_domains_prop =
  qtest ~count:10 "counters merged conserves concurrent increments"
    QCheck.(pair (int_range 1 4) (int_range 1_000 20_000))
    (fun (domains, per_domain) ->
      let regs = List.init domains (fun _ -> Counters.create ()) in
      let doms =
        List.map
          (fun reg ->
            Domain.spawn (fun () ->
                let c = Counters.counter reg "merge.prop_total" in
                for _ = 1 to per_domain do
                  Counters.incr c
                done))
          regs
      in
      let total = domains * per_domain in
      (* racing merges: a snapshot may lag but never overshoots *)
      let mid_ok = ref true in
      for _ = 1 to 50 do
        let m = Counters.find_count (Counters.merged regs) "merge.prop_total" in
        if m < 0 || m > total then mid_ok := false
      done;
      List.iter Domain.join doms;
      !mid_ok
      && Counters.find_count (Counters.merged regs) "merge.prop_total" = total)

(* The disabled record paths sit on every request's hot path: a null
   sink must cost a branch and allocate nothing. *)
let test_span_record_null_sink_allocation_free () =
  let seq = ref 0 in
  check (Alcotest.float 0.0) "minor words per span record" 0.0
    (Test_util.minor_words_per_call (fun () ->
         incr seq;
         Span.record Span.null_sink ~req_id:!seq ~phase:Span.Quantum ~start_ns:!seq
           ~dur_ns:100 ~arg:0))

let test_tail_offer_null_sink_allocation_free () =
  let seq = ref 0 in
  check (Alcotest.float 0.0) "minor words per tail offer" 0.0
    (Test_util.minor_words_per_call (fun () ->
         incr seq;
         Tail.offer Tail.null ~now_ns:!seq ~seq:!seq ~class_idx:0 ~worker:0
           ~sojourn_ns:1_000_000 ~quantum_ns:100_000 ~cap:(-1) ~inject_depth:0
           ~stages:no_stages ~quanta:1 ~stalls:0 ~gc_pause_ns:0))

(* The enabled span record writes five int columns in place: nothing
   on the minor heap, across the sink's doublings (built on the major
   heap) and its wrap-around alike. *)
let test_span_record_enabled_words () =
  let sink =
    Span.register (Span.create ~capacity_per_sink:4096 ()) (Span.Dispatcher 0)
  in
  let seq = ref 0 in
  check (Alcotest.float 0.0) "minor words per enabled span record" 0.0
    (Test_util.minor_words_per_call (fun () ->
         incr seq;
         Span.record sink ~req_id:!seq ~phase:Span.Dispatch ~start_ns:!seq ~dur_ns:10
           ~arg:0))

(* The armed reservoir's common case: a request faster than a full
   reservoir's floor is rejected by one compare and allocates nothing. *)
let test_tail_offer_reject_allocation_free () =
  let sink = Tail.create ~k:16 () in
  let offer ~seq ~sojourn_ns =
    Tail.offer sink ~now_ns:1 ~seq ~class_idx:0 ~worker:0 ~sojourn_ns
      ~quantum_ns:100_000 ~cap:(-1) ~inject_depth:0 ~stages:no_stages ~quanta:1
      ~stalls:0 ~gc_pause_ns:0
  in
  for i = 1 to 16 do
    offer ~seq:(-i) ~sojourn_ns:1_000_000
  done;
  let seq = ref 0 in
  check (Alcotest.float 0.0) "minor words per rejected offer" 0.0
    (Test_util.minor_words_per_call (fun () ->
         incr seq;
         offer ~seq:!seq ~sojourn_ns:1))

let tail_suite =
  [
    Alcotest.test_case "span record null sink allocation-free" `Quick
      test_span_record_null_sink_allocation_free;
    Alcotest.test_case "tail offer null sink allocation-free" `Quick
      test_tail_offer_null_sink_allocation_free;
    Alcotest.test_case "span record enabled" `Quick test_span_record_enabled_words;
    Alcotest.test_case "tail offer reject allocation-free" `Quick
      test_tail_offer_reject_allocation_free;
    Alcotest.test_case "tail disabled is inert" `Quick test_tail_disabled_is_inert;
    Alcotest.test_case "tail admit/evict/floor" `Quick test_tail_admit_evict_floor;
    Alcotest.test_case "tail window roll" `Quick test_tail_window_roll;
    Alcotest.test_case "tail breach ring" `Quick test_tail_breach_ring;
    Alcotest.test_case "tail dossier exactness" `Quick test_tail_dossier_exactness;
    Alcotest.test_case "tail outlier trace filter" `Quick test_tail_outlier_trace_filter;
    test_counters_merged_domains_prop;
  ]

let suite = suite @ tail_suite
