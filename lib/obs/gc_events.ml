(* OCaml 5 Runtime_events consumer: GC pauses as first-class telemetry.

   The wall-clock-gap stall detector in Tq_runtime sees that a worker
   lost its core; it cannot say to whom.  This module recovers the
   runtime's own side of the story: a background systhread self-monitors
   the process through [Runtime_events] (the always-compiled OCaml 5
   tracing ring), pairs EV_MINOR / EV_MAJOR begin/end callbacks into
   pause spans per domain, and publishes three things —

   - spans on the per-domain [Span.Gc] lanes, merged into the Perfetto
     timeline next to the worker lanes they explain;
   - counters/distributions (gc.minor_pauses, gc.minor_pause_ns, ...)
     in a registry of its own, rendered by the Stats RPC like any other;
   - a per-domain cumulative pause clock ([self_pause_ns]) that the
     scheduler's stall detector reads to attribute a wall-clock gap to
     GC vs everything else.

   One clock: Runtime_events stamps events from [CLOCK_MONOTONIC], the
   clock behind [Tq_util.Time_unit.now_ns] that stamps every live span,
   so pause stamps go onto the timeline as they come.

   Ownership: the consumer thread is the single writer of the registry,
   the Gc-lane sinks and the begin-slot arrays; the cumulative pause
   clocks are Atomics because worker domains read them mid-quantum.
   Ring ids index the arrays directly; with the serve path's
   spawn-once domain layout they coincide with [Domain.self] ids, which
   is what makes [self_pause_ns] work (documented caveat in the mli). *)

(* Runtime_events supports at most 128 live domains. *)
let max_domains = 128

type t = {
  spans : Span.t;
  counters : Counters.t;
  minor_pauses : Counters.counter;
  major_pauses : Counters.counter;
  events_lost : Counters.counter;
  minor_pause_ns : Counters.dist;
  major_pause_ns : Counters.dist;
  pause_cum : int Atomic.t array;  (** per-domain cumulative pause ns *)
  sinks : Span.sink option array;  (** lazily registered, consumer-owned *)
  minor_begin : int array;  (** stamp of the open EV_MINOR, -1 when none *)
  major_begin : int array;
  stop_flag : bool Atomic.t;
  mutable thread : Thread.t option;
}

let mono_of_ts ts = Int64.to_int (Runtime_events.Timestamp.to_int64 ts)

let counters t = t.counters
let spans t = t.spans

let domain_pause_ns t dom =
  if dom < 0 || dom >= max_domains then 0 else Atomic.get t.pause_cum.(dom)

let self_pause_ns t = domain_pause_ns t (Domain.self () :> int)

let sink_for t dom =
  let dom = dom land (max_domains - 1) in
  match t.sinks.(dom) with
  | Some s -> s
  | None ->
      let s = Span.register t.spans (Span.Gc dom) in
      t.sinks.(dom) <- Some s;
      s

let on_pause t dom ~major ~begin_mono ~end_mono =
  let dur = end_mono - begin_mono in
  if dur >= 0 && dom >= 0 && dom < max_domains then begin
    Atomic.set t.pause_cum.(dom) (Atomic.get t.pause_cum.(dom) + dur);
    if major then begin
      Counters.incr t.major_pauses;
      Counters.observe t.major_pause_ns dur
    end
    else begin
      Counters.incr t.minor_pauses;
      Counters.observe t.minor_pause_ns dur
    end;
    if Span.enabled t.spans then
      Span.record (sink_for t dom) ~req_id:(-1)
        ~phase:(if major then Span.Gc_major else Span.Gc_minor)
        ~start_ns:begin_mono ~dur_ns:dur ~arg:dom
  end

let consumer_callbacks t =
  let runtime_begin dom ts phase =
    let dom = dom land (max_domains - 1) in
    match phase with
    | Runtime_events.EV_MINOR -> t.minor_begin.(dom) <- mono_of_ts ts
    | Runtime_events.EV_MAJOR -> t.major_begin.(dom) <- mono_of_ts ts
    | _ -> ()
  in
  let runtime_end dom ts phase =
    let dom = dom land (max_domains - 1) in
    match phase with
    | Runtime_events.EV_MINOR ->
        if t.minor_begin.(dom) >= 0 then begin
          on_pause t dom ~major:false ~begin_mono:t.minor_begin.(dom)
            ~end_mono:(mono_of_ts ts);
          t.minor_begin.(dom) <- -1
        end
    | Runtime_events.EV_MAJOR ->
        if t.major_begin.(dom) >= 0 then begin
          on_pause t dom ~major:true ~begin_mono:t.major_begin.(dom)
            ~end_mono:(mono_of_ts ts);
          t.major_begin.(dom) <- -1
        end
    | _ -> ()
  in
  let lost_events _dom n = Counters.add t.events_lost n in
  Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ~lost_events ()

let start ?(spans = Span.null) ?(poll_interval_s = 0.001) () =
  Runtime_events.start ();
  let cursor = Runtime_events.create_cursor None in
  let counters = Counters.create () in
  let t =
    {
      spans;
      counters;
      minor_pauses = Counters.counter counters "gc.minor_pauses";
      major_pauses = Counters.counter counters "gc.major_pauses";
      events_lost = Counters.counter counters "gc.events_lost";
      minor_pause_ns = Counters.dist counters "gc.minor_pause_ns";
      major_pause_ns = Counters.dist counters "gc.major_pause_ns";
      pause_cum = Array.init max_domains (fun _ -> Atomic.make 0);
      sinks = Array.make max_domains None;
      minor_begin = Array.make max_domains (-1);
      major_begin = Array.make max_domains (-1);
      stop_flag = Atomic.make false;
      thread = None;
    }
  in
  let callbacks = consumer_callbacks t in
  let loop () =
    while not (Atomic.get t.stop_flag) do
      ignore (Runtime_events.read_poll cursor callbacks None);
      Thread.delay poll_interval_s
    done;
    (* Final drain so pauses up to the stop point make the trace. *)
    ignore (Runtime_events.read_poll cursor callbacks None);
    Runtime_events.free_cursor cursor
  in
  t.thread <- Some (Thread.create loop ());
  t

let stop t =
  match t.thread with
  | None -> ()
  | Some th ->
      Atomic.set t.stop_flag true;
      Thread.join th;
      t.thread <- None
