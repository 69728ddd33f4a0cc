(* Per-request stage decomposition: where the milliseconds go.

   The span streams of the live serve path already carry every boundary
   a request crosses — parse start, dispatch decision, ring pickup,
   each quantum, reply pop — each stamped from the one live clock.
   This module folds a merged stream into per-stage latency histograms
   by telescoping consecutive boundaries:

     parse            p0 .. t0        decode + classify + admission
     dispatch         t0 .. t1        worker choice + ring push
     ring_hop         t1 .. t2        sitting in the SPSC ring
     first_run_wait   t2 .. q0        in the worker's run queue
     service          sum of quantum durations
     preempt_overhead gaps between consecutive quanta
     reply_flush      last quantum end .. dispatcher reply pop

   Because each stage is a difference of consecutive boundary stamps,
   the stages of one request sum to its sojourn (reply pop - parse
   start) {e exactly}, by construction — that is the invariant the
   Stats RPC breakdown view, tq_load --breakdown and the committed
   BENCH_breakdown.json all carry and CI asserts on live data.

   Degradation, never failure: a request whose spans were overwritten
   (bounded sinks), out of order (cross-domain clock skew) or partially
   missing lands in the [unattributed] bucket with its sojourn intact;
   requests still in flight at snapshot time count as [incomplete];
   shed requests get a [shed] stage of their own (parse start to shed
   decision).  Accept spans are connection-scoped, so they are counted
   but excluded from the per-request sum. *)

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

(* One request's boundary records, accumulated while scanning the
   merged stream.  Only the fields the telescoping needs. *)
type pending = {
  mutable parse_start : int;  (** p0, -1 when unseen *)
  mutable dispatch_start : int;  (** t0 *)
  mutable dispatch_end : int;  (** t1 *)
  mutable hop : int;  (** t2 *)
  mutable quanta : (int * int) list;  (** (start, dur), newest first *)
  mutable reply_end : int;  (** reply pop stamp, -1 while in flight *)
  mutable duplicate : bool;  (** a boundary was recorded twice (overwrite) *)
}

type t = {
  latency : Latency.t;
  recorders : (stage * Latency.recorder) list;
  sojourn : Latency.recorder;
  shed_rec : Latency.recorder;
  unattributed_rec : Latency.recorder;
  stage_sums : (stage, int ref) Hashtbl.t;
  mutable requests : int;  (** fully decomposed *)
  mutable exact : int;  (** stage sum = sojourn, integer-exact *)
  mutable sojourn_sum : int;  (** over decomposed requests *)
  mutable stage_sum_total : int;  (** over decomposed requests *)
  mutable sheds : int;
  mutable unattributed : int;
  mutable incomplete : int;
  mutable accepts : int;
}

let create () =
  let latency = Latency.create () in
  {
    latency;
    recorders = List.map (fun s -> (s, Latency.recorder latency (stage_name s))) stages;
    sojourn = Latency.recorder latency "sojourn";
    shed_rec = Latency.recorder latency "shed";
    unattributed_rec = Latency.recorder latency "unattributed";
    stage_sums = Hashtbl.create 8;
    requests = 0;
    exact = 0;
    sojourn_sum = 0;
    stage_sum_total = 0;
    sheds = 0;
    unattributed = 0;
    incomplete = 0;
    accepts = 0;
  }

let fresh_pending () =
  {
    parse_start = -1;
    dispatch_start = -1;
    dispatch_end = -1;
    hop = -1;
    quanta = [];
    reply_end = -1;
    duplicate = false;
  }

let record_stage t stage ns =
  Latency.record (List.assq stage t.recorders) ns;
  let sum =
    match Hashtbl.find_opt t.stage_sums stage with
    | Some r -> r
    | None ->
        let r = ref 0 in
        Hashtbl.add t.stage_sums stage r;
        r
  in
  sum := !sum + ns

let unattributed t p =
  t.unattributed <- t.unattributed + 1;
  if p.parse_start >= 0 && p.reply_end >= 0 then
    Latency.record t.unattributed_rec (p.reply_end - p.parse_start)

(* Telescope one completed request into the seven stage values.  Any
   missing boundary or negative stage yields [None] — a partial
   decomposition would silently break the sum invariant. *)
let telescope p =
  if
    p.duplicate || p.reply_end < 0 || p.parse_start < 0 || p.dispatch_start < 0
    || p.dispatch_end < 0 || p.hop < 0 || p.quanta = []
  then None
  else begin
    let quanta = List.rev p.quanta in
    let q0_start, _ = List.hd quanta in
    let service = List.fold_left (fun acc (_, d) -> acc + d) 0 quanta in
    let last_end, preempt =
      List.fold_left
        (fun (prev_end, gaps) (s, d) -> (s + d, gaps + (s - prev_end)))
        (q0_start, 0) quanta
    in
    let vals =
      [
        (S_parse, p.dispatch_start - p.parse_start);
        (S_dispatch, p.dispatch_end - p.dispatch_start);
        (S_ring_hop, p.hop - p.dispatch_end);
        (S_first_run_wait, q0_start - p.hop);
        (S_service, service);
        (S_preempt_overhead, preempt);
        (S_reply_flush, p.reply_end - last_end);
      ]
    in
    if List.exists (fun (_, v) -> v < 0) vals then None else Some vals
  end

let finish_request t p =
  if p.reply_end < 0 then t.incomplete <- t.incomplete + 1
  else
    match telescope p with
    | None -> unattributed t p
    | Some vals ->
        let sojourn = p.reply_end - p.parse_start in
        let stage_sum = List.fold_left (fun acc (_, v) -> acc + v) 0 vals in
        List.iter (fun (s, v) -> record_stage t s v) vals;
        Latency.record t.sojourn sojourn;
        t.requests <- t.requests + 1;
        t.sojourn_sum <- t.sojourn_sum + sojourn;
        t.stage_sum_total <- t.stage_sum_total + stage_sum;
        if stage_sum = sojourn then t.exact <- t.exact + 1

let set_boundary p field v =
  (* A boundary seen twice means ring overwrite garbled this request. *)
  match field with
  | `Parse -> if p.parse_start >= 0 then p.duplicate <- true else p.parse_start <- v
  | `Dispatch_start ->
      if p.dispatch_start >= 0 then p.duplicate <- true else p.dispatch_start <- v
  | `Hop -> if p.hop >= 0 then p.duplicate <- true else p.hop <- v
  | `Reply -> if p.reply_end >= 0 then p.duplicate <- true else p.reply_end <- v

let collect_pendings ~on_accept ~on_shed records =
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
      | Span.Accept -> on_accept ()
      | Span.Shed -> on_shed r.dur_ns
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
          p.quanta <- (r.start_ns, r.dur_ns) :: p.quanta
      | Span.Reply_flush when r.req_id >= 0 ->
          set_boundary (pending r.req_id) `Reply (r.start_ns + r.dur_ns)
      | Span.Parse | Span.Dispatch | Span.Ring_hop | Span.Quantum
      | Span.Reply_flush | Span.Stall | Span.Gc_minor | Span.Gc_major | Span.Steal
      | Span.Kill | Span.Mark_dead | Span.Mark_alive | Span.Redispatch | Span.Retry
      | Span.Drop | Span.Outage -> ())
    records;
  pendings

let of_records records =
  let t = create () in
  let pendings =
    collect_pendings records
      ~on_accept:(fun () -> t.accepts <- t.accepts + 1)
      ~on_shed:(fun dur ->
        t.sheds <- t.sheds + 1;
        Latency.record t.shed_rec dur)
  in
  Hashtbl.iter (fun _ p -> finish_request t p) pendings;
  t

let request_stages records =
  let pendings =
    collect_pendings records ~on_accept:ignore ~on_shed:(fun _ -> ())
  in
  Hashtbl.fold
    (fun req_id p acc ->
      match telescope p with Some vals -> (req_id, vals) :: acc | None -> acc)
    pendings []

let latency t = t.latency
let requests t = t.requests
let exact t = t.exact
let sheds t = t.sheds
let unattributed_count t = t.unattributed
let incomplete t = t.incomplete
let accepts t = t.accepts

let stage_count t stage = Latency.count (List.assq stage t.recorders)

let stage_sum_ns t stage =
  match Hashtbl.find_opt t.stage_sums stage with Some r -> !r | None -> 0

let sum_rel_error t =
  if t.sojourn_sum = 0 then 0.0
  else
    Float.abs (float_of_int (t.stage_sum_total - t.sojourn_sum))
    /. float_of_int t.sojourn_sum

let invariant_ok t = t.requests = 0 || (t.exact = t.requests && sum_rel_error t < 0.01)

let exact_fraction t =
  if t.requests = 0 then 1.0 else float_of_int t.exact /. float_of_int t.requests

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
       t.requests t.exact (exact_fraction t) (sum_rel_error t) t.unattributed
       t.incomplete t.sheds t.accepts);
  Buffer.add_string b
    (Printf.sprintf "  \"sojourn_sum_ns\": %d,\n  \"stage_sum_ns\": %d,\n"
       t.sojourn_sum t.stage_sum_total);
  Buffer.add_string b "  \"stages\": {\n";
  List.iteri
    (fun i stage ->
      let r = List.assq stage t.recorders in
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
           t.requests t.exact t.unattributed t.sheds t.incomplete)
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
    (fun stage -> row (stage_name stage) (List.assq stage t.recorders) (stage_sum_ns t stage))
    stages;
  row "shed" t.shed_rec 0;
  row "unattributed" t.unattributed_rec 0;
  row "= sojourn" t.sojourn t.sojourn_sum;
  Tq_util.Text_table.render table
  ^ Printf.sprintf "sum invariant: stage sums cover %.4f of sojourn (%.2f%% exact)\n"
      (1.0 -. sum_rel_error t)
      (100.0 *. exact_fraction t)
