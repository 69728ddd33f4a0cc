(* Tail-based span sampling: always-on forensics for the slow few.

   Full span tracing records every request and is the wrong tool at
   calibrated load; aggregate histograms can't say which stage hurt
   which request.  This module keeps the middle ground the production
   µs-scale systems converged on (RackSched's per-request tail
   accounting): a per-lane bounded reservoir that retains, per sliding
   window, the K slowest completed requests plus every request
   breaching a latency threshold — and nothing else.

   The hot path is the dispatcher's reply pop.  Its common case is
   rejection (the request was fast), which costs one enabled branch
   plus one integer compare against the window's floor; admissions
   touch at most K slots (K is the configured dossier budget, a small
   constant — effectively O(1)) and are the only allocation.  The
   disabled path follows {!Span}'s null-sink discipline exactly: a
   sink of a disabled collection has capacity 0, so an [offer] is a
   single branch over all-int arguments, allocating nothing.

   Single-writer, like every per-lane structure: only the owning lane
   offers into its sink.  Retained entries are published through
   per-slot [Atomic.t]s holding immutable records, so a cross-lane
   reader (the Stats RPC, the HTTP /outliers endpoint) never sees a
   torn entry — only a slightly stale reservoir, which is fine: the
   slow requests of the last window don't change under the reader. *)

type entry = {
  e_seq : int;
  e_class : int;
  e_lane : int;
  e_worker : int;
  e_sojourn_ns : int;
  e_t0_ns : int;
  e_end_ns : int;
  e_quantum_ns : int;
  e_cap : int;
  e_inject_depth : int;
  e_breach : bool;
}

type sink = {
  s_k : int;  (* 0 = the null sink: offer is one branch *)
  s_threshold_ns : int;
  s_window_ns : int;
  s_lane : int;
  slots : entry option Atomic.t array;  (* current window's K slowest *)
  prev : entry option Atomic.t array;  (* last full window, snapshotted *)
  breaches : entry option Atomic.t array;  (* threshold ring, oldest overwritten *)
  mutable breach_next : int;
  mutable floor_ns : int;  (* min sojourn among filled slots; reject gate *)
  mutable filled : int;
  mutable window_start_ns : int;
  mutable m_offered : int;
  mutable m_admitted : int;
}

type t = {
  enabled : bool;
  k : int;
  threshold_ns : int;
  window_ns : int;
  sinks : sink list Atomic.t;  (* registration order, newest first *)
}

let null_sink =
  {
    s_k = 0;
    s_threshold_ns = 0;
    s_window_ns = 0;
    s_lane = -1;
    slots = [||];
    prev = [||];
    breaches = [||];
    breach_next = 0;
    floor_ns = 0;
    filled = 0;
    window_start_ns = 0;
    m_offered = 0;
    m_admitted = 0;
  }

let null =
  { enabled = false; k = 0; threshold_ns = 0; window_ns = 0; sinks = Atomic.make [] }

let create ?(k = 16) ?(threshold_ns = 0) ?(window_ns = 1_000_000_000) () =
  if k < 1 then invalid_arg "Tail.create: k must be positive";
  if window_ns < 1 then invalid_arg "Tail.create: window_ns must be positive";
  if threshold_ns < 0 then invalid_arg "Tail.create: threshold_ns must be >= 0";
  { enabled = true; k; threshold_ns; window_ns; sinks = Atomic.make [] }

let enabled t = t.enabled
let k t = t.k
let threshold_ns t = t.threshold_ns
let window_ns t = t.window_ns

let register t ~lane =
  if not t.enabled then null_sink
  else begin
    let mk () = Array.init t.k (fun _ -> Atomic.make None) in
    let s =
      {
        s_k = t.k;
        s_threshold_ns = t.threshold_ns;
        s_window_ns = t.window_ns;
        s_lane = lane;
        slots = mk ();
        prev = mk ();
        breaches = mk ();
        breach_next = 0;
        floor_ns = 0;
        filled = 0;
        window_start_ns = 0;
        m_offered = 0;
        m_admitted = 0;
      }
    in
    let rec add () =
      let cur = Atomic.get t.sinks in
      if not (Atomic.compare_and_set t.sinks cur (s :: cur)) then add ()
    in
    add ();
    s
  end

(* Tumble to a new window: the current top-K becomes the previous
   window's snapshot (still queryable until the next roll), the slots
   empty and the floor drops to zero.  Owner-only, like [offer]. *)
let roll s ~now_ns =
  for i = 0 to s.s_k - 1 do
    Atomic.set s.prev.(i) (Atomic.get s.slots.(i));
    Atomic.set s.slots.(i) None
  done;
  s.filled <- 0;
  s.floor_ns <- 0;
  s.window_start_ns <- now_ns

(* O(K) with constant K: place the entry, then rescan for the new
   floor.  Only reached for entries that beat the floor — the common
   case never gets here. *)
let insert_slot s e =
  if s.filled < s.s_k then begin
    Atomic.set s.slots.(s.filled) (Some e);
    s.filled <- s.filled + 1;
    if s.filled = s.s_k then begin
      let m = ref max_int in
      Array.iter
        (fun c -> match Atomic.get c with Some e -> if e.e_sojourn_ns < !m then m := e.e_sojourn_ns | None -> ())
        s.slots;
      s.floor_ns <- !m
    end
  end
  else begin
    (* evict the current minimum, then recompute the floor *)
    let min_i = ref 0 and min_v = ref max_int in
    Array.iteri
      (fun i c ->
        match Atomic.get c with
        | Some e -> if e.e_sojourn_ns < !min_v then begin min_v := e.e_sojourn_ns; min_i := i end
        | None -> ())
      s.slots;
    Atomic.set s.slots.(!min_i) (Some e);
    let m = ref max_int in
    Array.iter
      (fun c -> match Atomic.get c with Some e -> if e.e_sojourn_ns < !m then m := e.e_sojourn_ns | None -> ())
      s.slots;
    s.floor_ns <- !m
  end

let offer sink ~now_ns ~seq ~class_idx ~worker ~sojourn_ns ~t0_ns ~quantum_ns ~cap
    ~inject_depth =
  if sink.s_k > 0 then begin
    sink.m_offered <- sink.m_offered + 1;
    if sink.window_start_ns = 0 then sink.window_start_ns <- now_ns
    else if now_ns - sink.window_start_ns >= sink.s_window_ns then roll sink ~now_ns;
    let breach = sink.s_threshold_ns > 0 && sojourn_ns >= sink.s_threshold_ns in
    if breach || sink.filled < sink.s_k || sojourn_ns > sink.floor_ns then begin
      (* the only allocation on the enabled path: an admitted entry *)
      let e =
        {
          e_seq = seq;
          e_class = class_idx;
          e_lane = sink.s_lane;
          e_worker = worker;
          e_sojourn_ns = sojourn_ns;
          e_t0_ns = t0_ns;
          e_end_ns = now_ns;
          e_quantum_ns = quantum_ns;
          e_cap = cap;
          e_inject_depth = inject_depth;
          e_breach = breach;
        }
      in
      sink.m_admitted <- sink.m_admitted + 1;
      if breach then begin
        Atomic.set sink.breaches.(sink.breach_next mod sink.s_k) (Some e);
        sink.breach_next <- sink.breach_next + 1
      end;
      if sink.filled < sink.s_k || sojourn_ns > sink.floor_ns then insert_slot sink e
    end
  end

let sum_sinks t f =
  List.fold_left (fun acc s -> acc + f s) 0 (Atomic.get t.sinks)

let offered t = sum_sinks t (fun s -> s.m_offered)
let admitted t = sum_sinks t (fun s -> s.m_admitted)

(* Snapshot every retained entry across lanes: current window, previous
   window and the breach rings, deduplicated by sequence id (a breach
   is usually also among the K slowest), slowest first. *)
let entries t =
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  let take cell =
    match Atomic.get cell with
    | Some e when not (Hashtbl.mem seen e.e_seq) ->
        Hashtbl.add seen e.e_seq ();
        acc := e :: !acc
    | _ -> ()
  in
  List.iter
    (fun s ->
      Array.iter take s.slots;
      Array.iter take s.prev;
      Array.iter take s.breaches)
    (Atomic.get t.sinks);
  List.sort (fun a b -> compare b.e_sojourn_ns a.e_sojourn_ns) !acc

let retained t = List.length (entries t)

let top t ~limit =
  if limit < 0 then invalid_arg "Tail.top: negative limit";
  List.filteri (fun i _ -> i < limit) (entries t)

(* {2 Dossiers: entries enriched from the span stream} *)

type dossier = {
  d_entry : entry;
  d_attributed : bool;
  d_sojourn_ns : int;
  d_stages : (Profile.stage * int) list;
  d_quanta : int;
  d_stalls : int;
  d_gc_pauses : int;
  d_gc_pause_ns : int;
}

let dossiers t ~records ~limit =
  let picked = top t ~limit in
  let stages_tbl = Hashtbl.create 64 in
  List.iter
    (fun (id, stages) -> Hashtbl.replace stages_tbl id stages)
    (Profile.request_stages records);
  List.map
    (fun e ->
      let overlaps (r : Span.record) =
        r.Span.start_ns < e.e_end_ns && r.Span.start_ns + r.Span.dur_ns > e.e_t0_ns
      in
      let quanta = ref 0 and stalls = ref 0 in
      let gc_pauses = ref 0 and gc_pause_ns = ref 0 in
      List.iter
        (fun (r : Span.record) ->
          match r.Span.phase with
          | Span.Quantum when r.Span.req_id = e.e_seq -> incr quanta
          | Span.Stall when r.Span.lane = Span.Worker e.e_worker && overlaps r ->
              incr stalls
          | (Span.Gc_minor | Span.Gc_major) when overlaps r ->
              incr gc_pauses;
              gc_pause_ns := !gc_pause_ns + r.Span.dur_ns
          | _ -> ())
        records;
      match Hashtbl.find_opt stages_tbl e.e_seq with
      | Some stages ->
          {
            d_entry = e;
            d_attributed = true;
            d_sojourn_ns = List.fold_left (fun acc (_, v) -> acc + v) 0 stages;
            d_stages = stages;
            d_quanta = !quanta;
            d_stalls = !stalls;
            d_gc_pauses = !gc_pauses;
            d_gc_pause_ns = !gc_pause_ns;
          }
      | None ->
          {
            d_entry = e;
            d_attributed = false;
            d_sojourn_ns = e.e_sojourn_ns;
            d_stages = [];
            d_quanta = !quanta;
            d_stalls = !stalls;
            d_gc_pauses = !gc_pauses;
            d_gc_pause_ns = !gc_pause_ns;
          })
    picked

let dossier_json ~class_name d =
  let e = d.d_entry in
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"seq\": %d, \"class\": %S, \"lane\": %d, \"worker\": %d, \"breach\": %b, \
        \"admit_sojourn_ns\": %d, \"t0_ns\": %d, \"quantum_ns\": %d, \
        \"admission_cap\": %d, \"inject_depth\": %d, \
        \"attributed\": %b, \"sojourn_ns\": %d, \"stage_sum_ns\": %d, "
       e.e_seq (class_name e.e_class) e.e_lane e.e_worker e.e_breach e.e_sojourn_ns
       e.e_t0_ns e.e_quantum_ns e.e_cap e.e_inject_depth
       d.d_attributed d.d_sojourn_ns
       (List.fold_left (fun acc (_, v) -> acc + v) 0 d.d_stages));
  (if d.d_attributed then begin
     Buffer.add_string b "\"stages_ns\": {";
     List.iteri
       (fun i (s, v) ->
         if i > 0 then Buffer.add_string b ", ";
         Buffer.add_string b (Printf.sprintf "%S: %d" (Profile.stage_name s) v))
       d.d_stages;
     Buffer.add_string b "}, "
   end
   else Buffer.add_string b "\"stages_ns\": null, ");
  Buffer.add_string b
    (Printf.sprintf
       "\"quanta\": %d, \"preemptions\": %d, \"stalls\": %d, \"gc_pauses\": %d, \
        \"gc_pause_ns\": %d}"
       d.d_quanta (max 0 (d.d_quanta - 1)) d.d_stalls d.d_gc_pauses d.d_gc_pause_ns);
  Buffer.contents b

let dossiers_json ?(class_name = string_of_int) t ds =
  let b = Buffer.create 2048 in
  Buffer.add_string b
    (Printf.sprintf
       "{\n  \"k\": %d,\n  \"threshold_ns\": %d,\n  \"window_ns\": %d,\n  \
        \"offered\": %d,\n  \"admitted\": %d,\n  \"retained\": %d,\n  \"dossiers\": [\n"
       t.k t.threshold_ns t.window_ns (offered t) (admitted t) (retained t));
  List.iteri
    (fun i d ->
      Buffer.add_string b "    ";
      Buffer.add_string b (dossier_json ~class_name d);
      if i < List.length ds - 1 then Buffer.add_string b ",";
      Buffer.add_string b "\n")
    ds;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

let us ns = float_of_int ns /. 1e3

let render ?(class_name = string_of_int) ds =
  let table =
    Tq_util.Text_table.create
      ~title:(Printf.sprintf "Slow-request dossiers (%d retained)" (List.length ds))
      ~columns:
        [
          "seq"; "class"; "lane"; "wrk"; "sojourn us"; "parse"; "disp"; "hop";
          "wait"; "serve"; "preempt"; "flush"; "q"; "gc"; "depth";
        ]
  in
  List.iter
    (fun d ->
      let e = d.d_entry in
      let stage s =
        match List.assq_opt s d.d_stages with
        | Some v -> Tq_util.Text_table.cell_f (us v)
        | None -> "-"
      in
      Tq_util.Text_table.add_row table
        [
          string_of_int e.e_seq;
          class_name e.e_class;
          string_of_int e.e_lane;
          string_of_int e.e_worker;
          Tq_util.Text_table.cell_f (us d.d_sojourn_ns)
          ^ (if e.e_breach then "!" else "");
          stage Profile.S_parse;
          stage Profile.S_dispatch;
          stage Profile.S_ring_hop;
          stage Profile.S_first_run_wait;
          stage Profile.S_service;
          stage Profile.S_preempt_overhead;
          stage Profile.S_reply_flush;
          string_of_int d.d_quanta;
          Printf.sprintf "%d/%s" d.d_gc_pauses
            (Tq_util.Text_table.cell_f (us d.d_gc_pause_ns));
          string_of_int e.e_inject_depth;
        ])
    ds;
  Tq_util.Text_table.render table
  ^ "sojourn '!' = threshold breach; stages in us telescope to the sojourn \
     exactly when attributed; depth = inject ring seen at dispatch\n"

(* Outlier-only Perfetto export: the retained requests' own spans plus
   any core-level span (stall, GC pause) overlapping a retained
   request's residency — a multi-minute run collapses to a readable
   timeline of just the requests worth staring at. *)
let filter_records t records =
  let picked = entries t in
  let ids = Hashtbl.create 64 in
  List.iter (fun e -> Hashtbl.replace ids e.e_seq ()) picked;
  let intervals = List.map (fun e -> (e.e_t0_ns, e.e_end_ns)) picked in
  let overlaps_any (r : Span.record) =
    List.exists
      (fun (t0, t1) -> r.Span.start_ns < t1 && r.Span.start_ns + r.Span.dur_ns > t0)
      intervals
  in
  List.filter
    (fun (r : Span.record) ->
      if Hashtbl.mem ids r.Span.req_id then true
      else
        match r.Span.phase with
        | Span.Stall | Span.Gc_minor | Span.Gc_major ->
            overlaps_any r
        | _ -> false)
    records

let to_chrome t records = Span.records_to_chrome ~process:"tq_serve" (filter_records t records)
