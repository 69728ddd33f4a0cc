(* Turns a declarative {!Plan} into seeded DES events against a system,
   through a narrow hook record so TQ and both baselines inject the
   same way.

   Determinism: stall generation draws from one split PRNG per install,
   tick by tick in worker order, so a fixed seed replays the identical
   fault timeline regardless of what the scheduler is doing. *)

module Sim = Tq_engine.Sim
module Prng = Tq_util.Prng

type target = {
  cores : int;
  stall : wid:int -> duration_ns:int -> unit;
  kill : wid:int -> unit;
  dispatcher_outage : dispatcher:int -> duration_ns:int -> unit;
}

type t = {
  mutable stalls_injected : int;
  mutable stall_ns_injected : int;
  mutable kills : int;
  mutable outages : int;
  mutable periodics : Sim.periodic list;
}

let scope_wids ~cores = function
  | Plan.All_workers -> List.init cores (fun i -> i)
  | Plan.Workers ws ->
      List.iter
        (fun w ->
          if w < 0 || w >= cores then invalid_arg "Injector: worker id out of range")
        ws;
      ws

let install sim ~rng ~target ~until_ns specs =
  List.iter Plan.validate specs;
  if until_ns <= 0 then invalid_arg "Injector.install: until_ns must be positive";
  let stats =
    { stalls_injected = 0; stall_ns_injected = 0; kills = 0; outages = 0; periodics = [] }
  in
  let add_periodic p = stats.periodics <- p :: stats.periodics in
  List.iter
    (fun spec ->
      match spec with
      | Plan.Stalls { intensity; duration; scope; tick_ns } ->
          if intensity > 0.0 then begin
            let wids = scope_wids ~cores:target.cores scope in
            let rng = Prng.split rng in
            (* Per tick per core, P(start a stall) chosen so stalled
               time / total time -> intensity. *)
            let p =
              Float.min 1.0
                (intensity *. float_of_int tick_ns /. Plan.mean_duration_ns duration)
            in
            add_periodic
              (Sim.periodic sim ~until:until_ns ~interval:tick_ns (fun () ->
                   List.iter
                     (fun wid ->
                       if Prng.bernoulli rng ~p then begin
                         let d = Plan.sample_duration rng duration in
                         stats.stalls_injected <- stats.stalls_injected + 1;
                         stats.stall_ns_injected <- stats.stall_ns_injected + d;
                         target.stall ~wid ~duration_ns:d
                       end)
                     wids))
          end
      | Plan.Kill { wid; at_ns } ->
          if wid >= target.cores then invalid_arg "Injector: kill worker id out of range";
          ignore
            (Sim.schedule_at sim ~time:(max (Sim.now sim + 1) at_ns) (fun () ->
                 stats.kills <- stats.kills + 1;
                 target.kill ~wid)
              : Sim.event)
      | Plan.Dispatcher_outage { dispatcher; at_ns; duration_ns } ->
          ignore
            (Sim.schedule_at sim ~time:(max (Sim.now sim + 1) at_ns) (fun () ->
                 stats.outages <- stats.outages + 1;
                 target.dispatcher_outage ~dispatcher ~duration_ns)
              : Sim.event)
      | Plan.Nic_drop _ ->
          (* Handled on the submission path: see [wrap_sink]. *)
          ())
    specs;
  stats

(* The NIC-path drop filter: wraps a system's submission sink.  Dropped
   requests vanish silently — the client only notices via its timeout,
   which is what makes the retry layer earn its keep. *)
let wrap_sink ~rng ~metrics ?(obs = Tq_obs.Obs.disabled ()) specs sink =
  let drop_prob =
    List.fold_left
      (fun acc spec ->
        match spec with Plan.Nic_drop { prob } -> 1.0 -. ((1.0 -. acc) *. (1.0 -. prob)) | _ -> acc)
      0.0 specs
  in
  if drop_prob <= 0.0 then sink
  else begin
    let rng = Prng.split rng in
    let spans_on = Tq_obs.Span.enabled obs.Tq_obs.Obs.spans in
    let span_sink = Tq_obs.Span.register obs.Tq_obs.Obs.spans Tq_obs.Span.Global in
    fun (req : Tq_workload.Arrivals.request) ->
      if Prng.bernoulli rng ~p:drop_prob then begin
        Tq_workload.Metrics.record_nic_drop metrics;
        if spans_on then
          Tq_obs.Span.record span_sink ~req_id:req.req_id ~phase:Tq_obs.Span.Drop
            ~start_ns:req.arrival_ns ~dur_ns:0 ~arg:Tq_obs.Span.drop_nic
      end
      else sink req
  end

let stalls_injected t = t.stalls_injected
let stall_ns_injected t = t.stall_ns_injected
let kills t = t.kills
let outages t = t.outages
let stop t = List.iter Sim.stop_periodic t.periodics
