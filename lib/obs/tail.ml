(* Tail-based sampling: always-on forensics for the slow few.

   Full span tracing records every request and is the wrong tool at
   calibrated load; aggregate histograms can't say which stage hurt
   which request.  This module keeps the middle ground the production
   µs-scale systems converged on (RackSched's per-request tail
   accounting): one bounded reservoir, owned by the dispatcher loop,
   that retains per sliding window the K slowest completed requests
   plus every request breaching a latency threshold — and nothing
   else.  Each retained entry is a complete dossier: the loop offers
   the request's seven stages (computed once, at completion, by
   {!Profile.record}), its quanta and the stalls and GC pause time of
   its residency, all measured in the data path.

   The hot path is the dispatcher's reply pop.  Its common case is
   rejection (the request was fast), which costs one enabled branch
   plus one integer compare against the window's floor; admissions
   touch at most K slots (K is the configured dossier budget, a small
   constant — effectively O(1)) and are the only allocation.  The
   disabled reservoir has K = 0, so an [offer] is a single branch,
   allocating nothing.

   Single writer: only the loop offers.  Retained entries are immutable
   records held in plain slots, and a reader (the Stats RPC on the loop
   itself, the HTTP /outliers endpoint on a thread of the loop's
   domain) loads each slot in one read, so it never sees a torn entry —
   only a slightly stale reservoir, which is fine: the slow requests of
   the last window don't change under the reader. *)

type entry = {
  e_seq : int;
  e_class : int;
  e_worker : int;
  e_sojourn_ns : int;
  e_end_ns : int;
  e_quantum_ns : int;
  e_cap : int;
  e_inject_depth : int;
  e_breach : bool;
  e_stages : int array;
  e_quanta : int;
  e_stalls : int;
  e_gc_pause_ns : int;
}

type t = {
  k : int;  (* 0 = disabled: offer is one branch *)
  threshold_ns : int;
  window_ns : int;
  slots : entry option array;  (* current window's K slowest *)
  prev : entry option array;  (* last full window, snapshotted *)
  breaches : entry option array;  (* threshold ring, oldest overwritten *)
  mutable breach_next : int;
  mutable floor_ns : int;  (* min sojourn among filled slots; reject gate *)
  mutable filled : int;
  mutable window_start_ns : int;
  mutable offered : int;
  mutable admitted : int;
}

let make ~k ~threshold_ns ~window_ns =
  {
    k;
    threshold_ns;
    window_ns;
    slots = Array.make k None;
    prev = Array.make k None;
    breaches = Array.make k None;
    breach_next = 0;
    floor_ns = 0;
    filled = 0;
    window_start_ns = 0;
    offered = 0;
    admitted = 0;
  }

let null = make ~k:0 ~threshold_ns:0 ~window_ns:0

let create ?(k = 16) ?(threshold_ns = 0) ?(window_ns = 1_000_000_000) () =
  if k < 1 then invalid_arg "Tail.create: k must be positive";
  if window_ns < 1 then invalid_arg "Tail.create: window_ns must be positive";
  if threshold_ns < 0 then invalid_arg "Tail.create: threshold_ns must be >= 0";
  make ~k ~threshold_ns ~window_ns

let enabled t = t.k > 0
let k t = t.k
let threshold_ns t = t.threshold_ns
let window_ns t = t.window_ns

(* Tumble to a new window: the current top-K becomes the previous
   window's snapshot (still queryable until the next roll), the slots
   empty and the floor drops to zero.  Owner-only, like [offer]. *)
let roll t ~now_ns =
  Array.blit t.slots 0 t.prev 0 t.k;
  Array.fill t.slots 0 t.k None;
  t.filled <- 0;
  t.floor_ns <- 0;
  t.window_start_ns <- now_ns

let min_sojourn t =
  Array.fold_left
    (fun m -> function Some e -> min m e.e_sojourn_ns | None -> m)
    max_int t.slots

(* O(K) with constant K: place the entry, then rescan for the new
   floor.  Only reached for entries that beat the floor — the common
   case never gets here. *)
let insert_slot t e =
  if t.filled < t.k then begin
    t.slots.(t.filled) <- Some e;
    t.filled <- t.filled + 1;
    if t.filled = t.k then t.floor_ns <- min_sojourn t
  end
  else begin
    (* evict the current minimum, then recompute the floor *)
    let min_i = ref 0 and min_v = ref max_int in
    Array.iteri
      (fun i -> function
        | Some e when e.e_sojourn_ns < !min_v -> min_v := e.e_sojourn_ns; min_i := i
        | _ -> ())
      t.slots;
    t.slots.(!min_i) <- Some e;
    t.floor_ns <- min_sojourn t
  end

let offer t ~now_ns ~seq ~class_idx ~worker ~sojourn_ns ~quantum_ns ~cap ~inject_depth
    ~stages ~quanta ~stalls ~gc_pause_ns =
  if t.k > 0 then begin
    t.offered <- t.offered + 1;
    if t.window_start_ns = 0 then t.window_start_ns <- now_ns
    else if now_ns - t.window_start_ns >= t.window_ns then roll t ~now_ns;
    let breach = t.threshold_ns > 0 && sojourn_ns >= t.threshold_ns in
    if breach || t.filled < t.k || sojourn_ns > t.floor_ns then begin
      (* the only allocation on the enabled path: an admitted entry *)
      let e =
        {
          e_seq = seq;
          e_class = class_idx;
          e_worker = worker;
          e_sojourn_ns = sojourn_ns;
          e_end_ns = now_ns;
          e_quantum_ns = quantum_ns;
          e_cap = cap;
          e_inject_depth = inject_depth;
          e_breach = breach;
          e_stages = Array.copy stages;
          e_quanta = quanta;
          e_stalls = stalls;
          e_gc_pause_ns = gc_pause_ns;
        }
      in
      t.admitted <- t.admitted + 1;
      if breach then begin
        t.breaches.(t.breach_next mod t.k) <- Some e;
        t.breach_next <- t.breach_next + 1
      end;
      if t.filled < t.k || sojourn_ns > t.floor_ns then insert_slot t e
    end
  end

let offered t = t.offered
let admitted t = t.admitted

(* Snapshot every retained entry: current window, previous window and
   the breach ring, deduplicated by sequence id (a breach is usually
   also among the K slowest), slowest first. *)
let entries t =
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  let take = function
    | Some e when not (Hashtbl.mem seen e.e_seq) ->
        Hashtbl.add seen e.e_seq ();
        acc := e :: !acc
    | _ -> ()
  in
  Array.iter take t.slots;
  Array.iter take t.prev;
  Array.iter take t.breaches;
  List.sort (fun a b -> compare b.e_sojourn_ns a.e_sojourn_ns) !acc

let retained t = List.length (entries t)

let top t ~limit =
  if limit < 0 then invalid_arg "Tail.top: negative limit";
  List.filteri (fun i _ -> i < limit) (entries t)

let t0_ns e = e.e_end_ns - e.e_sojourn_ns
let stage_sum e = Array.fold_left ( + ) 0 e.e_stages

let dossier_json ~class_name e =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"seq\": %d, \"class\": %S, \"worker\": %d, \"breach\": %b, \"t0_ns\": %d, \
        \"quantum_ns\": %d, \"admission_cap\": %d, \"inject_depth\": %d, \
        \"sojourn_ns\": %d, \"stage_sum_ns\": %d, \"stages_ns\": {"
       e.e_seq (class_name e.e_class) e.e_worker e.e_breach (t0_ns e) e.e_quantum_ns
       e.e_cap e.e_inject_depth e.e_sojourn_ns (stage_sum e));
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b (Printf.sprintf "%S: %d" (Profile.stage_name s) e.e_stages.(i)))
    Profile.stages;
  Buffer.add_string b
    (Printf.sprintf
       "}, \"quanta\": %d, \"preemptions\": %d, \"stalls\": %d, \"gc_pause_ns\": %d}"
       e.e_quanta (max 0 (e.e_quanta - 1)) e.e_stalls e.e_gc_pause_ns);
  Buffer.contents b

let dossiers_json ?(class_name = string_of_int) t es =
  let b = Buffer.create 2048 in
  Buffer.add_string b
    (Printf.sprintf
       "{\n  \"k\": %d,\n  \"threshold_ns\": %d,\n  \"window_ns\": %d,\n  \
        \"offered\": %d,\n  \"admitted\": %d,\n  \"retained\": %d,\n  \"dossiers\": [\n"
       t.k t.threshold_ns t.window_ns (offered t) (admitted t) (retained t));
  List.iteri
    (fun i e ->
      Buffer.add_string b "    ";
      Buffer.add_string b (dossier_json ~class_name e);
      if i < List.length es - 1 then Buffer.add_string b ",";
      Buffer.add_string b "\n")
    es;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

let us ns = float_of_int ns /. 1e3

let render ?(class_name = string_of_int) es =
  let table =
    Tq_util.Text_table.create
      ~title:(Printf.sprintf "Slow-request dossiers (%d retained)" (List.length es))
      ~columns:
        [
          "seq"; "class"; "wrk"; "sojourn us"; "parse"; "disp"; "hop"; "wait"; "serve";
          "preempt"; "flush"; "q"; "gc us"; "depth";
        ]
  in
  List.iter
    (fun e ->
      Tq_util.Text_table.add_row table
        ([
           string_of_int e.e_seq;
           class_name e.e_class;
           string_of_int e.e_worker;
           Tq_util.Text_table.cell_f (us e.e_sojourn_ns) ^ if e.e_breach then "!" else "";
         ]
        @ List.map (fun v -> Tq_util.Text_table.cell_f (us v)) (Array.to_list e.e_stages)
        @ [
            string_of_int e.e_quanta;
            Tq_util.Text_table.cell_f (us e.e_gc_pause_ns);
            string_of_int e.e_inject_depth;
          ]))
    es;
  Tq_util.Text_table.render table
  ^ "sojourn '!' = threshold breach; stages in us telescope to the sojourn \
     exactly; depth = inject ring seen at dispatch\n"

(* Outlier-only Perfetto export: the retained requests' own spans plus
   any core-level span (stall, GC pause) overlapping a retained
   request's residency — a multi-minute run collapses to a readable
   timeline of just the requests worth staring at. *)
let filter_records t records =
  let picked = entries t in
  let ids = Hashtbl.create 64 in
  List.iter (fun e -> Hashtbl.replace ids e.e_seq ()) picked;
  let intervals = List.map (fun e -> (t0_ns e, e.e_end_ns)) picked in
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
