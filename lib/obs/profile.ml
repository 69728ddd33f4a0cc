(* Per-request stage decomposition: where the milliseconds go.

   A request crosses seven boundaries, each stamped from the one live
   clock — parse start, dispatch decision, ring push, worker pickup,
   first quantum, last quantum end, dispatcher reply pop — and the
   stages are the differences of consecutive ones:

     parse            p0 .. t0        decode + classify + admission
     dispatch         t0 .. t1        worker choice + ring push
     ring_hop         t1 .. pickup    sitting in the SPSC ring
     first_run_wait   pickup .. q0    in the worker's run queue
     service          sum of quantum durations
     preempt_overhead gaps between consecutive quanta
     reply_flush      last quantum end .. dispatcher reply pop

   Because each stage is a difference of consecutive boundary stamps,
   the stages of one request sum to its sojourn (reply pop - parse
   start) {e exactly}, by construction — that is the invariant the
   Stats RPC breakdown view, tq_load --breakdown and the committed
   BENCH_breakdown.json all carry and CI asserts on live data.

   [record] is the one per-request path.  The live server calls it at
   each completion with the boundaries it holds (its pending entry and
   the worker's residency, carried in the reply); [of_records] calls
   it for every request it can rebuild from a merged span stream — a
   trace, or the DES.

   Degradation, never failure, on the span path: a request whose spans
   were overwritten (bounded sinks), out of order or partially missing
   lands in the [unattributed] bucket with its sojourn intact;
   requests still in flight at snapshot time count as [incomplete];
   shed requests get a [shed] stage of their own (parse start to shed
   decision).  Accepts are connection-scoped, so they are counted but
   excluded from the per-request sum. *)

type stage =
  | S_parse
  | S_dispatch
  | S_ring_hop
  | S_first_run_wait
  | S_service
  | S_preempt_overhead
  | S_reply_flush

let stage_name = function
  | S_parse -> "parse"
  | S_dispatch -> "dispatch"
  | S_ring_hop -> "ring_hop"
  | S_first_run_wait -> "first_run_wait"
  | S_service -> "service"
  | S_preempt_overhead -> "preempt_overhead"
  | S_reply_flush -> "reply_flush"

let stages =
  [
    S_parse;
    S_dispatch;
    S_ring_hop;
    S_first_run_wait;
    S_service;
    S_preempt_overhead;
    S_reply_flush;
  ]

let stage_names = List.map stage_name stages

let stage_index = function
  | S_parse -> 0
  | S_dispatch -> 1
  | S_ring_hop -> 2
  | S_first_run_wait -> 3
  | S_service -> 4
  | S_preempt_overhead -> 5
  | S_reply_flush -> 6

let n_stages = List.length stages

type t = {
  latency : Latency.t;
  recorders : Latency.recorder array;  (** by {!stage_index} *)
  sums : int array;  (** ns per stage over decomposed requests *)
  last : int array;  (** the stages of the request recorded last *)
  sojourn : Latency.recorder;
  shed_rec : Latency.recorder;
  unattributed_rec : Latency.recorder;
  mutable requests : int;  (** fully decomposed *)
  mutable inexact : int;  (** stage sum <> sojourn *)
  mutable sojourn_sum : int;  (** over decomposed requests *)
  mutable mismatch_ns : int;  (** stage sum - sojourn, summed over them *)
  mutable sheds : int;
  mutable unattributed : int;
  mutable incomplete : int;
  mutable accepts : int;
}

let create () =
  let latency = Latency.create () in
  {
    latency;
    recorders =
      Array.of_list (List.map (fun s -> Latency.recorder latency (stage_name s)) stages);
    sums = Array.make n_stages 0;
    last = Array.make n_stages 0;
    sojourn = Latency.recorder latency "sojourn";
    shed_rec = Latency.recorder latency "shed";
    unattributed_rec = Latency.recorder latency "unattributed";
    requests = 0;
    inexact = 0;
    sojourn_sum = 0;
    mismatch_ns = 0;
    sheds = 0;
    unattributed = 0;
    incomplete = 0;
    accepts = 0;
  }

(* The one per-request recording path, for a span stream and the live
   reply alike: telescope the boundaries into the seven stages.  A
   negative stage (a boundary out of order) sends the request to the
   unattributed bucket whole — a partial decomposition would silently
   break the sum invariant.  Allocates nothing. *)
let record t ~p0 ~t0 ~t1 ~pickup ~first ~run_ns ~last_end ~pop =
  let l = t.last in
  l.(0) <- t0 - p0;
  l.(1) <- t1 - t0;
  l.(2) <- pickup - t1;
  l.(3) <- first - pickup;
  l.(4) <- run_ns;
  l.(5) <- last_end - first - run_ns;
  l.(6) <- pop - last_end;
  let sojourn = pop - p0 in
  let negative = ref false and sum = ref 0 in
  for i = 0 to n_stages - 1 do
    if l.(i) < 0 then negative := true;
    sum := !sum + l.(i)
  done;
  if !negative then begin
    t.unattributed <- t.unattributed + 1;
    Latency.record t.unattributed_rec sojourn
  end
  else begin
    for i = 0 to n_stages - 1 do
      Latency.record t.recorders.(i) l.(i);
      t.sums.(i) <- t.sums.(i) + l.(i)
    done;
    Latency.record t.sojourn sojourn;
    t.sojourn_sum <- t.sojourn_sum + sojourn;
    t.mismatch_ns <- t.mismatch_ns + (!sum - sojourn);
    if !sum <> sojourn then t.inexact <- t.inexact + 1;
    t.requests <- t.requests + 1
  end

let record_shed t ns =
  t.sheds <- t.sheds + 1;
  Latency.record t.shed_rec ns

let record_accept t = t.accepts <- t.accepts + 1
let last t = t.last

(* One request's boundaries, accumulated while scanning the merged
   stream.  Quanta fold as they come: the first one's start, the
   summed durations and the latest one's end. *)
type pending = {
  mutable parse_start : int;  (** p0, -1 when unseen *)
  mutable dispatch_start : int;  (** t0 *)
  mutable dispatch_end : int;  (** t1 *)
  mutable hop : int;  (** pickup *)
  mutable first : int;  (** first quantum start, -1 when none *)
  mutable run : int;
  mutable last_end : int;
  mutable reply_end : int;  (** reply pop stamp, -1 while in flight *)
  mutable duplicate : bool;  (** a boundary was recorded twice (overwrite) *)
}

let fresh_pending () =
  {
    parse_start = -1;
    dispatch_start = -1;
    dispatch_end = -1;
    hop = -1;
    first = -1;
    run = 0;
    last_end = -1;
    reply_end = -1;
    duplicate = false;
  }

let finish_request t p =
  if p.reply_end < 0 then t.incomplete <- t.incomplete + 1
  else if
    p.duplicate || p.parse_start < 0 || p.dispatch_start < 0 || p.dispatch_end < 0
    || p.hop < 0 || p.first < 0
  then begin
    t.unattributed <- t.unattributed + 1;
    if p.parse_start >= 0 then Latency.record t.unattributed_rec (p.reply_end - p.parse_start)
  end
  else
    record t ~p0:p.parse_start ~t0:p.dispatch_start ~t1:p.dispatch_end ~pickup:p.hop
      ~first:p.first ~run_ns:p.run ~last_end:p.last_end ~pop:p.reply_end

let set_boundary p field v =
  (* A boundary seen twice means ring overwrite garbled this request. *)
  match field with
  | `Parse -> if p.parse_start >= 0 then p.duplicate <- true else p.parse_start <- v
  | `Dispatch_start ->
      if p.dispatch_start >= 0 then p.duplicate <- true else p.dispatch_start <- v
  | `Hop -> if p.hop >= 0 then p.duplicate <- true else p.hop <- v
  | `Reply -> if p.reply_end >= 0 then p.duplicate <- true else p.reply_end <- v

let of_records records =
  let t = create () in
  let pendings : (int, pending) Hashtbl.t = Hashtbl.create 1024 in
  let pending req_id =
    match Hashtbl.find_opt pendings req_id with
    | Some p -> p
    | None ->
        let p = fresh_pending () in
        Hashtbl.add pendings req_id p;
        p
  in
  List.iter
    (fun (r : Span.record) ->
      match r.phase with
      | Span.Accept -> record_accept t
      | Span.Shed -> record_shed t r.dur_ns
      | Span.Parse when r.req_id >= 0 ->
          set_boundary (pending r.req_id) `Parse r.start_ns
      | Span.Dispatch when r.req_id >= 0 ->
          let p = pending r.req_id in
          set_boundary p `Dispatch_start r.start_ns;
          p.dispatch_end <- r.start_ns + r.dur_ns
      | Span.Ring_hop when r.req_id >= 0 ->
          set_boundary (pending r.req_id) `Hop r.start_ns
      | Span.Quantum when r.req_id >= 0 ->
          let p = pending r.req_id in
          if p.first < 0 then p.first <- r.start_ns;
          p.run <- p.run + r.dur_ns;
          p.last_end <- r.start_ns + r.dur_ns
      | Span.Reply_flush when r.req_id >= 0 ->
          set_boundary (pending r.req_id) `Reply (r.start_ns + r.dur_ns)
      | Span.Parse | Span.Dispatch | Span.Ring_hop | Span.Quantum
      | Span.Reply_flush | Span.Stall | Span.Gc_minor | Span.Gc_major | Span.Steal
      | Span.Kill | Span.Mark_dead | Span.Mark_alive | Span.Redispatch | Span.Retry
      | Span.Drop | Span.Outage -> ())
    records;
  Hashtbl.iter (fun _ p -> finish_request t p) pendings;
  t

let latency t = t.latency
let requests t = t.requests
let exact t = t.requests - t.inexact
let sheds t = t.sheds
let unattributed_count t = t.unattributed
let incomplete t = t.incomplete
let accepts t = t.accepts

let stage_count t stage = Latency.count t.recorders.(stage_index stage)
let stage_sum_ns t stage = t.sums.(stage_index stage)

let sum_rel_error t =
  if t.sojourn_sum = 0 then 0.0
  else Float.abs (float_of_int t.mismatch_ns) /. float_of_int t.sojourn_sum

let invariant_ok t = t.requests = 0 || (t.inexact = 0 && sum_rel_error t < 0.01)

(* From [inexact], not [exact / requests]: a render racing the live
   recorder reads 1.0 whenever every request so far telescoped. *)
let exact_fraction t =
  if t.requests = 0 then 1.0
  else float_of_int (t.requests - t.inexact) /. float_of_int t.requests

let share t sum =
  if t.sojourn_sum = 0 then 0.0 else float_of_int sum /. float_of_int t.sojourn_sum

let to_json t =
  let b = Buffer.create 2048 in
  Buffer.add_string b "{\n";
  Buffer.add_string b (Tq_util.Bench_meta.json_fields ());
  Buffer.add_string b "  \"benchmark\": \"tq_serve stage breakdown\",\n";
  Buffer.add_string b
    (Printf.sprintf
       "  \"requests\": %d,\n  \"exact\": %d,\n  \"exact_fraction\": %.6f,\n  \
        \"sum_rel_error\": %.6f,\n  \"unattributed\": %d,\n  \"incomplete\": %d,\n  \
        \"shed\": %d,\n  \"accepts\": %d,\n"
       t.requests (exact t) (exact_fraction t) (sum_rel_error t) t.unattributed
       t.incomplete t.sheds t.accepts);
  Buffer.add_string b
    (Printf.sprintf "  \"sojourn_sum_ns\": %d,\n  \"stage_sum_ns\": %d,\n"
       t.sojourn_sum (t.sojourn_sum + t.mismatch_ns));
  Buffer.add_string b "  \"stages\": {\n";
  List.iteri
    (fun i stage ->
      let r = t.recorders.(stage_index stage) in
      Buffer.add_string b
        (Printf.sprintf "    %S: {%s, \"sum_ns\": %d, \"share\": %.4f}%s\n"
           (stage_name stage) (Latency.json_fields r) (stage_sum_ns t stage)
           (share t (stage_sum_ns t stage))
           (if i = List.length stages - 1 then "" else ",")))
    stages;
  Buffer.add_string b "  },\n";
  Buffer.add_string b
    (Printf.sprintf "  \"shed_stage\": {%s},\n" (Latency.json_fields t.shed_rec));
  Buffer.add_string b
    (Printf.sprintf "  \"unattributed_stage\": {%s},\n"
       (Latency.json_fields t.unattributed_rec));
  Buffer.add_string b
    (Printf.sprintf "  \"sojourn\": {%s}\n}\n" (Latency.json_fields t.sojourn));
  Buffer.contents b

let us ns = float_of_int ns /. 1e3

let render t =
  let table =
    Tq_util.Text_table.create
      ~title:
        (Printf.sprintf
           "Stage breakdown: %d requests decomposed (%d exact, %d unattributed, %d \
            shed, %d in flight)"
           t.requests (exact t) t.unattributed t.sheds t.incomplete)
      ~columns:[ "stage"; "count"; "p50 us"; "p90 us"; "p99 us"; "sum ms"; "share %" ]
  in
  let row name r sum =
    Tq_util.Text_table.add_row table
      [
        name;
        Tq_util.Text_table.cell_i (Latency.count r);
        Tq_util.Text_table.cell_f (us (Latency.percentile r 50.0));
        Tq_util.Text_table.cell_f (us (Latency.percentile r 90.0));
        Tq_util.Text_table.cell_f (us (Latency.percentile r 99.0));
        Tq_util.Text_table.cell_f (float_of_int sum /. 1e6);
        Tq_util.Text_table.cell_f (100.0 *. share t sum);
      ]
  in
  List.iter
    (fun stage -> row (stage_name stage) t.recorders.(stage_index stage) (stage_sum_ns t stage))
    stages;
  row "shed" t.shed_rec 0;
  row "unattributed" t.unattributed_rec 0;
  row "= sojourn" t.sojourn t.sojourn_sum;
  Tq_util.Text_table.render table
  ^ Printf.sprintf "sum invariant: stage sums cover %.4f of sojourn (%.2f%% exact)\n"
      (1.0 -. sum_rel_error t)
      (100.0 *. exact_fraction t)
