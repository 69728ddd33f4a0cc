(* Client-side per-request timeout + retry with capped exponential
   backoff (the RackSched-style robustness layer).

   Sits between the arrival generator and the scheduler: use [sink] as
   the Arrivals sink, and have the experiment driver call
   [note_completion] whenever the scheduler finishes a job.  An attempt
   that does not complete within [timeout_ns] is retried after
   min(backoff_base_ns * 2^(retry-1), backoff_cap_ns), up to
   [max_attempts] total submissions; after that the request is
   abandoned (a timeout drop).

   The original attempt is NOT cancelled on retry — it cannot be, the
   packet is already in the server — so a request can complete twice;
   the first useful completion wins and later ones are counted as
   duplicates.  All accounting flows into the retry-aware counters of
   {!Metrics}. *)

module Sim = Tq_engine.Sim
module Span = Tq_obs.Span
module Prng = Tq_util.Prng

type config = {
  timeout_ns : int;  (** per-attempt client timeout *)
  max_attempts : int;  (** total submissions allowed, >= 1 *)
  backoff_base_ns : int;  (** backoff before the first retry *)
  backoff_cap_ns : int;  (** exponential backoff ceiling *)
  jitter : bool;  (** full jitter: retry after uniform [0, backoff] *)
  retry_budget : int option;
      (** total retries allowed across every request; [None] = unlimited *)
}

let default_config =
  {
    timeout_ns = 200_000;
    max_attempts = 3;
    backoff_base_ns = 10_000;
    backoff_cap_ns = 160_000;
    jitter = false;
    retry_budget = None;
  }

let validate_config c =
  if c.timeout_ns <= 0 then invalid_arg "Retry: timeout_ns must be positive";
  if c.max_attempts < 1 then invalid_arg "Retry: max_attempts must be >= 1";
  if c.backoff_base_ns < 0 then invalid_arg "Retry: negative backoff_base_ns";
  if c.backoff_cap_ns < c.backoff_base_ns then
    invalid_arg "Retry: backoff_cap_ns below backoff_base_ns";
  match c.retry_budget with
  | Some b when b < 0 -> invalid_arg "Retry: negative retry_budget"
  | _ -> ()

(* Backoff before retry number [retry] (1 = first retry): doubling from
   the base, clamped to the cap.  Shift-count is bounded so the doubling
   cannot overflow for any retry number. *)
let backoff_ns config ~retry =
  if retry < 1 then invalid_arg "Retry.backoff_ns: retry must be >= 1";
  if config.backoff_base_ns = 0 then 0
  else begin
    let doublings = min (retry - 1) 40 in
    let b = config.backoff_base_ns lsl doublings in
    (* lsl can wrap for pathological bases; treat any wrap as capped. *)
    if b <= 0 || b > config.backoff_cap_ns then config.backoff_cap_ns else b
  end

type outcome = Pending | Completed | Abandoned

type entry = {
  req : Arrivals.request;  (** original request (original arrival time) *)
  mutable attempt : int;  (** submissions so far *)
  mutable outcome : outcome;
  mutable timeout_ev : Sim.event option;
}

type t = {
  sim : Sim.t;
  config : config;
  submit : Arrivals.request -> unit;
  metrics : Metrics.t;
  spans_on : bool;
  sink : Span.sink;  (** the [Global] lane *)
  rng : Prng.t;
  tbl : (int, entry) Hashtbl.t;
  mutable in_flight : int;  (** requests neither completed nor abandoned *)
  mutable retries_spent : int;  (** against [config.retry_budget] *)
}

let create sim ~config ~metrics ~submit ?(obs = Tq_obs.Obs.disabled ())
    ?(rng = Prng.create ~seed:0x5245545259L) () =
  validate_config config;
  {
    sim;
    config;
    submit;
    metrics;
    spans_on = Span.enabled obs.Tq_obs.Obs.spans;
    sink = Span.register obs.Tq_obs.Obs.spans Span.Global;
    rng;
    tbl = Hashtbl.create 4096;
    in_flight = 0;
    retries_spent = 0;
  }

let rec launch t e =
  e.attempt <- e.attempt + 1;
  Metrics.record_attempt t.metrics;
  let now = Sim.now t.sim in
  t.submit { e.req with arrival_ns = now };
  e.timeout_ev <-
    Some
      (Sim.schedule_after t.sim ~delay:t.config.timeout_ns (fun () -> on_timeout t e))

and on_timeout t e =
  if e.outcome = Pending then begin
    e.timeout_ev <- None;
    let budget_left =
      match t.config.retry_budget with
      | None -> true
      | Some b -> t.retries_spent < b
    in
    if e.attempt >= t.config.max_attempts || not budget_left then begin
      e.outcome <- Abandoned;
      t.in_flight <- t.in_flight - 1;
      Metrics.record_timeout_drop t.metrics;
      if e.attempt < t.config.max_attempts then
        (* the shared budget, not this request's attempt limit, said no *)
        Metrics.record_retries_exhausted t.metrics;
      if t.spans_on then
        Span.record t.sink ~req_id:e.req.req_id ~phase:Span.Drop ~start_ns:(Sim.now t.sim)
          ~dur_ns:0
          ~arg:
            (if e.attempt >= t.config.max_attempts then Span.drop_retries_exhausted
             else Span.drop_retry_budget)
    end
    else begin
      t.retries_spent <- t.retries_spent + 1;
      let backoff = backoff_ns t.config ~retry:e.attempt in
      (* Full jitter (AWS-style): spread synchronized timeouts uniformly
         over [0, backoff] so retry waves do not re-arrive as a wave. *)
      let backoff =
        if t.config.jitter && backoff > 0 then
          Prng.int_in_range t.rng ~lo:0 ~hi:backoff
        else backoff
      in
      Metrics.record_retry t.metrics;
      if t.spans_on then
        Span.record t.sink ~req_id:e.req.req_id ~phase:Span.Retry ~start_ns:(Sim.now t.sim)
          ~dur_ns:backoff ~arg:(e.attempt + 1);
      ignore
        (Sim.schedule_after t.sim ~delay:backoff (fun () ->
             (* A stray completion may land during the backoff window. *)
             if e.outcome = Pending then launch t e)
          : Sim.event)
    end
  end

let sink t (req : Arrivals.request) =
  let e = { req; attempt = 0; outcome = Pending; timeout_ev = None } in
  Hashtbl.replace t.tbl req.req_id e;
  t.in_flight <- t.in_flight + 1;
  launch t e

let note_completion t ~req_id ~finish_ns =
  match Hashtbl.find_opt t.tbl req_id with
  | None -> ()  (* submitted around the retry layer; nothing to track *)
  | Some e -> (
      match e.outcome with
      | Completed | Abandoned -> Metrics.record_duplicate t.metrics
      | Pending ->
          e.outcome <- Completed;
          t.in_flight <- t.in_flight - 1;
          (match e.timeout_ev with Some ev -> Sim.cancel ev | None -> ());
          e.timeout_ev <- None;
          Metrics.record_eventual t.metrics ~class_idx:e.req.class_idx
            ~arrival_ns:e.req.arrival_ns ~finish_ns)

let in_flight t = t.in_flight
let retries_spent t = t.retries_spent

let attempts_of t ~req_id =
  match Hashtbl.find_opt t.tbl req_id with Some e -> e.attempt | None -> 0
