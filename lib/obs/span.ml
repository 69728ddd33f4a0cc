(* Cross-domain request spans for the live serving path.

   The simulator's Trace is a single ring written from one thread; the
   live server has a dispatcher thread plus N worker domains, so one
   shared ring would be a data race.  Here every domain registers its
   own bounded sink (the Spsc_ring idiom: per-cell Atomics so record
   publication is ordered with the cursor update, single writer per
   sink) and a merge step stitches the per-domain buffers into one
   timeline keyed by request id.

   The hot-path contract matches Trace: a sink of a disabled collection
   is [null_sink] (capacity 0), so a record call costs one branch and
   allocates nothing — every argument is an immediate int.  Call sites
   additionally guard clock reads with [enabled]. *)

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

type record = {
  req_id : int;
  phase : phase;
  lane : Event.lane;
  start_ns : int;
  dur_ns : int;
  arg : int;
}

type sink = {
  s_lane : Event.lane;
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
  { s_lane = Event.Global; cells = [||]; s_capacity = 0; next = Atomic.make 0 }

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

let json_of_record buf r =
  let tid = Event.lane_tid r.lane in
  let args = Printf.sprintf "{\"req\":%d,\"arg\":%d}" r.req_id r.arg in
  if r.dur_ns > 0 then
    Buffer.add_string buf
      (Printf.sprintf
         "{\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":%s,\"dur\":%s,\"name\":%S,\"args\":%s},\n"
         tid (ts_us r.start_ns) (ts_us r.dur_ns) (phase_name r.phase) args)
  else
    Buffer.add_string buf
      (Printf.sprintf
         "{\"ph\":\"i\",\"pid\":0,\"tid\":%d,\"ts\":%s,\"s\":\"t\",\"name\":%S,\"args\":%s},\n"
         tid (ts_us r.start_ns) (phase_name r.phase) args)

let records_to_chrome records =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[\n";
  Buffer.add_string buf
    "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"tq_serve\"}},\n";
  let lanes = Hashtbl.create 16 in
  List.iter
    (fun r ->
      if not (Hashtbl.mem lanes (Event.lane_tid r.lane)) then
        Hashtbl.add lanes (Event.lane_tid r.lane) r.lane)
    records;
  Hashtbl.fold (fun tid lane acc -> (tid, lane) :: acc) lanes []
  |> List.sort compare
  |> List.iter (fun (tid, lane) ->
         Buffer.add_string buf
           (Printf.sprintf
              "{\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":%S}},\n"
              tid (Event.lane_name lane)));
  List.iter (fun r -> json_of_record buf r) records;
  (* Drop the trailing ",\n" of the last entry. *)
  Buffer.truncate buf (Buffer.length buf - 2);
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

let to_chrome t = records_to_chrome (merge t)

let write_file t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_chrome t))
