(* A key-value server on the real forced-multitasking runtime.

   GET and SCAN requests run as fibers on one TQ worker core: probes at
   250 ns granularity (the library-level stand-in for the compiler
   pass) preempt the long SCAN so GETs never wait behind it — the
   RocksDB experiment of the paper, live on OCaml effects.  The worker
   runs on a virtual clock, so the schedule is deterministic.

     dune exec examples/kv_server.exe *)

module Store = Tq_kv.Store
module Clock = Tq_runtime.Clock
module Task_worker = Tq_runtime.Task_worker

let populate store n =
  for i = 0 to n - 1 do
    Store.put store (Printf.sprintf "user%08d" i) (Printf.sprintf "profile-%d" i)
  done

let () =
  let store = Store.create () in
  populate store 50_000;
  Printf.printf "loaded %d keys (%d runs, %d flushes)\n\n" (Store.length store)
    (Store.run_count store) (Store.flushes store);

  let clock = Clock.virtual_ () in
  let worker = Task_worker.create ~clock ~quantum_ns:2_000 ~on_finish:ignore () in
  let completion_order = ref [] and next_id = ref 0 in
  (* Each request runs its store operation, then credits its Table 1
     service time to the virtual clock. *)
  let submit_named name ~service_ns op =
    incr next_id;
    Task_worker.submit worker
      {
        Task_worker.task_id = !next_id;
        class_idx = 0;
        work =
          (fun ~wid:_ ->
            op ();
            Virtual_work.work clock service_ns;
            completion_order := name :: !completion_order);
      }
  in
  (* One monster SCAN first (~675us), then a burst of GETs (~1.2us). *)
  submit_named "SCAN" ~service_ns:675_000 (fun () ->
      ignore (Store.scan store ~start:"user00010000" ~limit:2_000));
  for i = 1 to 12 do
    submit_named (Printf.sprintf "GET-%02d" i) ~service_ns:1_200 (fun () ->
        ignore (Store.get store (Printf.sprintf "user%08d" (i * 999))))
  done;
  Task_worker.run_until_idle worker;

  let order = List.rev !completion_order in
  Printf.printf "completion order (SCAN submitted FIRST):\n  %s\n\n" (String.concat ", " order);
  Printf.printf "yields taken: %d — the 675us SCAN was preempted every 2us,\n"
    (Task_worker.total_yields worker);
  Printf.printf "so all 12 GETs (1.2us each) finished before it.\n";
  match List.rev order with
  | "SCAN" :: _ -> ()
  | _ ->
      prerr_endline "kv_server: a GET completed after the SCAN";
      exit 1
