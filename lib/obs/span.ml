(* Request spans: the one event model of the simulator and the live
   server.

   The live server has a dispatcher thread plus N worker domains, so one
   shared ring would be a data race.  Every domain registers its own
   bounded sink (single writer per sink; per-cell Atomics, because the
   sink overwrites its oldest records and has no consumer cursor, so a
   reader may read a cell while the writer replaces it) and a merge
   step stitches the per-domain buffers into one timeline keyed by
   request id.  Building a sink's cells with [Array.init] of fresh
   Atomics forces a minor collection once a sink passes 256 cells.  A
   simulated system registers one sink per lane it writes, on its single
   domain, and stamps virtual ns.

   The hot-path contract: a sink of a disabled collection is
   [null_sink] (capacity 0), so a record call costs one branch and
   allocates nothing — every argument is an immediate int.  Call sites
   read [enabled] once when built and guard every record on it. *)

type lane = Global | Dispatcher of int | Worker of int | Gc of int

let lane_name = function
  | Global -> "global"
  | Dispatcher d -> Printf.sprintf "dispatcher %d" d
  | Worker w -> Printf.sprintf "worker %d" w
  | Gc d -> Printf.sprintf "gc domain %d" d

(* Stable Chrome-trace thread ids: global, then dispatchers, then
   workers, then GC lanes, so Perfetto sorts lanes in pipeline order. *)
let lane_tid = function
  | Global -> 0
  | Dispatcher d -> 1 + d
  | Worker w -> 100 + w
  | Gc d -> 200 + d

type phase =
  | Accept
  | Parse
  | Dispatch
  | Ring_hop
  | Quantum
  | Reply_flush
  | Stall
  | Shed
  | Gc_minor
  | Gc_major
  | Steal
  | Kill
  | Mark_dead
  | Mark_alive
  | Redispatch
  | Retry
  | Drop
  | Outage

let phase_name = function
  | Accept -> "accept"
  | Parse -> "parse"
  | Dispatch -> "dispatch"
  | Ring_hop -> "ring_hop"
  | Quantum -> "quantum"
  | Reply_flush -> "reply_flush"
  | Stall -> "stall"
  | Shed -> "shed"
  | Gc_minor -> "gc_minor"
  | Gc_major -> "gc_major"
  | Steal -> "steal"
  | Kill -> "kill"
  | Mark_dead -> "mark_dead"
  | Mark_alive -> "mark_alive"
  | Redispatch -> "redispatch"
  | Retry -> "retry"
  | Drop -> "drop"
  | Outage -> "outage"

let drop_nic = 0
let drop_no_worker = 1
let drop_retries_exhausted = 2
let drop_retry_budget = 3

type record = {
  req_id : int;
  phase : phase;
  lane : lane;
  start_ns : int;
  dur_ns : int;
  arg : int;
}

type sink = {
  s_lane : lane;
  cells : record option Atomic.t array;
  s_capacity : int;
  next : int Atomic.t;  (** records ever written by the owning domain *)
}

type t = {
  enabled : bool;
  capacity_per_sink : int;
  sinks : sink list Atomic.t;  (** registration order, newest first *)
}

let null_sink =
  { s_lane = Global; cells = [||]; s_capacity = 0; next = Atomic.make 0 }

let null = { enabled = false; capacity_per_sink = 0; sinks = Atomic.make [] }

let create ?(capacity_per_sink = 65_536) () =
  if capacity_per_sink < 1 then
    invalid_arg "Span.create: capacity_per_sink must be positive";
  { enabled = true; capacity_per_sink; sinks = Atomic.make [] }

let enabled t = t.enabled

(* Registration is the only cross-domain write on the collection
   itself, so it goes through a CAS loop; each worker registers its own
   sink from its own domain. *)
let register t lane =
  if not t.enabled then null_sink
  else begin
    let s =
      {
        s_lane = lane;
        cells = Array.init t.capacity_per_sink (fun _ -> Atomic.make None);
        s_capacity = t.capacity_per_sink;
        next = Atomic.make 0;
      }
    in
    let rec add () =
      let cur = Atomic.get t.sinks in
      if not (Atomic.compare_and_set t.sinks cur (s :: cur)) then add ()
    in
    add ();
    s
  end

let record sink ~req_id ~phase ~start_ns ~dur_ns ~arg =
  if sink.s_capacity > 0 then begin
    let seq = Atomic.get sink.next in
    Atomic.set
      sink.cells.(seq mod sink.s_capacity)
      (Some { req_id; phase; lane = sink.s_lane; start_ns; dur_ns; arg });
    Atomic.set sink.next (seq + 1)
  end

let sink_records sink =
  let next = Atomic.get sink.next in
  let first = max 0 (next - sink.s_capacity) in
  let acc = ref [] in
  for seq = next - 1 downto first do
    match Atomic.get sink.cells.(seq mod sink.s_capacity) with
    | Some r -> acc := r :: !acc
    | None -> ()
  done;
  !acc

let total t =
  List.fold_left (fun acc s -> acc + Atomic.get s.next) 0 (Atomic.get t.sinks)

let sink_dropped sink = max 0 (Atomic.get sink.next - sink.s_capacity)

let dropped t =
  List.fold_left (fun acc s -> acc + sink_dropped s) 0 (Atomic.get t.sinks)

(* Stitch the per-domain buffers into one timeline: stable sort by span
   start, so records within one sink keep their relative order whenever
   their starts are ordered (they are, for every phase whose start is
   the recording domain's own clock) and ties never reorder a sink. *)
let merge t =
  Atomic.get t.sinks
  |> List.rev (* registration order: dispatcher first *)
  |> List.concat_map sink_records
  |> List.stable_sort (fun a b -> compare a.start_ns b.start_ns)

let ts_us ns = Printf.sprintf "%.3f" (float_of_int ns /. 1e3)

let json_of_record r =
  let tid = lane_tid r.lane in
  let args = Printf.sprintf "{\"req\":%d,\"arg\":%d}" r.req_id r.arg in
  if r.dur_ns > 0 then
    Printf.sprintf
      "{\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":%s,\"dur\":%s,\"name\":%S,\"args\":%s}"
      tid (ts_us r.start_ns) (ts_us r.dur_ns) (phase_name r.phase) args
  else
    Printf.sprintf
      "{\"ph\":\"i\",\"pid\":0,\"tid\":%d,\"ts\":%s,\"s\":\"t\",\"name\":%S,\"args\":%s}"
      tid (ts_us r.start_ns) (phase_name r.phase) args

(* The document goes out piece by piece through [add], so [write_file]
   streams to its channel rather than holding the whole JSON in memory
   next to the records. *)
let emit_chrome ~process add records =
  let sep = ref "" in
  let entry s =
    add !sep;
    add s;
    sep := ",\n"
  in
  add "{\"traceEvents\":[\n";
  entry
    (Printf.sprintf
       "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":%S}}"
       process);
  let lanes = Hashtbl.create 16 in
  List.iter
    (fun r ->
      if not (Hashtbl.mem lanes (lane_tid r.lane)) then
        Hashtbl.add lanes (lane_tid r.lane) r.lane)
    records;
  Hashtbl.fold (fun tid lane acc -> (tid, lane) :: acc) lanes []
  |> List.sort compare
  |> List.iter (fun (tid, lane) ->
         entry
           (Printf.sprintf
              "{\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":%S}}"
              tid (lane_name lane)));
  List.iter (fun r -> entry (json_of_record r)) records;
  add "\n]}\n"

let records_to_chrome ~process records =
  let buf = Buffer.create 4096 in
  emit_chrome ~process (Buffer.add_string buf) records;
  Buffer.contents buf

let to_chrome ~process t = records_to_chrome ~process (merge t)

let write_file ~process t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> emit_chrome ~process (output_string oc) (merge t))

let to_text ?limit t =
  let records = merge t in
  let kept = List.length records in
  let skip = match limit with Some l when l < kept -> kept - l | _ -> 0 in
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "spans: %d recorded, %d in buffer (%d overwritten)\n" (total t) kept
    (dropped t);
  if skip > 0 then Printf.bprintf buf "... %d earlier spans elided\n" skip;
  List.iteri
    (fun i r ->
      if i >= skip then
        Printf.bprintf buf "%12d ns  %-14s %-11s req=%d dur_ns=%d arg=%d\n" r.start_ns
          (lane_name r.lane) (phase_name r.phase) r.req_id r.dur_ns r.arg)
    records;
  Buffer.contents buf
