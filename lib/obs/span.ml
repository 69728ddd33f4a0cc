(* Request spans: the one event model of the simulator and the live
   server.

   The live server has a dispatcher thread plus N worker domains, so one
   shared ring would be a data race.  Every domain registers its own
   bounded sink: plain arrays written only by their owner, plus an
   atomic count (the [Spsc_ring] idiom, with no consumer).  Nothing
   reads a sink's records while its writer runs: [merge] and the
   exports run once every writer has stopped (a joined domain, a
   stopped [Gc_events] consumer, the DES's single domain) and stitch
   the sinks into one timeline keyed by request id.  A simulated system
   registers one sink per lane it writes and stamps virtual ns.

   The hot-path contract: a sink of a disabled collection is
   [null_sink] (capacity 0), so a record call costs one branch and
   allocates nothing — every argument is an immediate int; an enabled
   one writes five columns in place.  Call sites read [enabled] once
   when built and guard every record on it. *)

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

(* One column per field, one slot per record, written only by the
   owner; the lane is the sink's own.  The columns start at 256 slots
   (or the capacity, if smaller): [Max_young_wosize], so registration
   builds them on the minor heap and adds no major-heap work to set-up.
   Each doubling up to the capacity is built straight on the major
   heap.  Full, they overwrite slot [seq mod capacity].
   [next] is atomic, so [total] and [dropped] can be read live. *)
type sink = {
  s_lane : lane;
  s_capacity : int;  (** 0 for [null_sink] *)
  mutable req_ids : int array;
  mutable phases : phase array;
  mutable starts : int array;
  mutable durs : int array;
  mutable args : int array;
  next : int Atomic.t;  (** records ever written by the owning domain *)
}

type t = {
  enabled : bool;
  capacity_per_sink : int;
  sinks : sink list Atomic.t;  (** registration order, newest first *)
}

let make_sink s_lane s_capacity len =
  let ints () = Array.make len 0 in
  { s_lane; s_capacity; req_ids = ints (); phases = Array.make len Accept;
    starts = ints (); durs = ints (); args = ints (); next = Atomic.make 0 }

let null_sink = make_sink Global 0 0
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
    let cap = t.capacity_per_sink in
    let s = make_sink lane cap (min cap 256) in
    let rec add () =
      let cur = Atomic.get t.sinks in
      if not (Atomic.compare_and_set t.sinks cur (s :: cur)) then add ()
    in
    add ();
    s
  end

(* Top level, so a doubling builds no closure on the minor heap. *)
let widen a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let grow s =
  let n = min s.s_capacity (2 * Array.length s.starts) in
  s.req_ids <- widen s.req_ids n 0;
  s.phases <- widen s.phases n Accept;
  s.starts <- widen s.starts n 0;
  s.durs <- widen s.durs n 0;
  s.args <- widen s.args n 0

let record sink ~req_id ~phase ~start_ns ~dur_ns ~arg =
  if sink.s_capacity > 0 then begin
    let seq = Atomic.get sink.next in
    if seq = Array.length sink.starts && seq < sink.s_capacity then grow sink;
    let i = seq mod Array.length sink.starts in
    sink.req_ids.(i) <- req_id;
    sink.phases.(i) <- phase;
    sink.starts.(i) <- start_ns;
    sink.durs.(i) <- dur_ns;
    sink.args.(i) <- arg;
    Atomic.set sink.next (seq + 1)
  end

(* A sink's surviving records, oldest first: slot [seq mod length] for
   each of the last [min next length] sequence numbers. *)
let sink_records s =
  let next = Atomic.get s.next and len = Array.length s.starts in
  let first = max 0 (next - len) in
  List.init (next - first) (fun k ->
      let i = (first + k) mod len in
      { req_id = s.req_ids.(i); phase = s.phases.(i); lane = s.s_lane;
        start_ns = s.starts.(i); dur_ns = s.durs.(i); arg = s.args.(i) })

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
