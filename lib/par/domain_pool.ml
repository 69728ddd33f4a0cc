(* Bounded task pool over OCaml 5 Domains.

   Every worker claims the next task index from one shared atomic
   cursor (one fetch-and-add, no locks) until the cursor passes the
   last task, which bounds total claims at exactly [n] tasks.  Tasks are
   coarse — a figure point takes milliseconds to seconds — so the
   shared cursor is never the bottleneck and there is nothing to steal.

   Determinism: every task writes its result into its own slot of the
   output array, and the merge is by task index — scheduling decides
   only *when* a task runs, never what it computes (provided tasks close
   over their own state; see DESIGN.md "tq_par").  jobs=1 runs inline on
   the calling domain, so the sequential path has no Domain overhead. *)

module Time_unit = Tq_util.Time_unit

type stats = {
  jobs : int;
  per_domain_tasks : int array;
  per_domain_busy_ns : int array;
  wall_ns : int;
}

let run ?jobs (tasks : (unit -> 'a) array) =
  let n = Array.length tasks in
  let jobs = match jobs with Some j -> j | None -> Domain.recommended_domain_count () in
  let jobs = max 1 (min jobs n) in
  let started = Time_unit.now_ns () in
  let results : ('a, exn) result option array = Array.make n None in
  let per_domain_tasks = Array.make jobs 0 in
  let per_domain_busy_ns = Array.make jobs 0 in
  let run_task w idx =
    let t0 = Time_unit.now_ns () in
    (results.(idx) <-
       Some (match tasks.(idx) () with v -> Ok v | exception e -> Error e));
    per_domain_busy_ns.(w) <- per_domain_busy_ns.(w) + (Time_unit.now_ns () - t0);
    per_domain_tasks.(w) <- per_domain_tasks.(w) + 1
  in
  if jobs = 1 then Array.iteri (fun idx _ -> run_task 0 idx) tasks
  else begin
    let cursor = Atomic.make 0 in
    let rec worker w =
      let idx = Atomic.fetch_and_add cursor 1 in
      if idx < n then begin
        run_task w idx;
        worker w
      end
    in
    let domains =
      Array.init (jobs - 1) (fun i -> Domain.spawn (fun () -> worker (i + 1)))
    in
    worker 0;
    Array.iter Domain.join domains
  end;
  let out =
    Array.init n (fun i ->
        match results.(i) with
        | Some (Ok v) -> v
        | Some (Error e) -> raise e
        | None -> assert false (* every index claimed exactly once *))
  in
  let wall_ns = Time_unit.now_ns () - started in
  (out, { jobs; per_domain_tasks; per_domain_busy_ns; wall_ns })

let map ?jobs f arr =
  fst (run ?jobs (Array.map (fun x () -> f x) arr))
