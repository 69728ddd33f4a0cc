(* tqbench: the benchmark's measuring process.

   Usage: tqbench.exe --workload NAME --seed N --seconds S --trace 0|1
            [--server PATH] [--spans-out FILE]

   Prints one JSON object as its last line: the measured end-to-end
   metrics (and, with --trace 1, the per-layer metrics), or the reason
   the run failed.  run.py builds this program and wraps its output. *)

open Common

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let server = ref "" and spans_out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME serve_light|sim_des");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measurement time");
      ("--trace", Arg.Set_int trace, "0|1 per-layer (traced) run");
      ("--server", Arg.Set_string server, "PATH tq_serve executable");
      ("--spans-out", Arg.Set_string spans_out, "FILE where the benchmark's spans go");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "tqbench --workload NAME --seed N --seconds S --trace 0|1";
  let trace = !trace = 1 in
  let spans_out = if !spans_out = "" then None else Some !spans_out in
  let fields =
    try
      let attempted, failed, e2e, layers, info =
        match !workload with
        | "sim_des" ->
            let simulated, e2e, layers, info =
              Des_bench.run ~seed:!seed ~seconds:!seconds ~trace ~spans_out
            in
            (simulated, 0, e2e, layers, info)
        | w -> (
            match Serve_bench.spec_of_name w with
            | None -> failwith ("unknown workload " ^ w)
            | Some spec ->
                if !server = "" then failwith "--server is required for serve workloads";
                Serve_bench.run spec ~server:!server ~seed:!seed ~seconds:!seconds ~trace
                  ~spans_out)
      in
      let metrics l = Json.Obj (List.map (fun (k, v) -> (k, num v)) l) in
      [
        ("ok", Json.Bool true);
        ("attempted", int attempted);
        ("failed", int failed);
        ("end_to_end", metrics e2e);
        ("per_layer", metrics layers);
        ("info", Json.Obj info);
      ]
    with
    | Check_failed msg -> [ ("ok", Json.Bool false); ("error", str ("check failed: " ^ msg)) ]
    | Failure msg | Sys_error msg -> [ ("ok", Json.Bool false); ("error", str msg) ]
    | Unix.Unix_error (e, fn, arg) ->
        [
          ("ok", Json.Bool false);
          ("error", str (Printf.sprintf "%s(%s): %s" fn arg (Unix.error_message e)));
        ]
    | e -> [ ("ok", Json.Bool false); ("error", str (Printexc.to_string e)) ]
  in
  print_endline (json_to_string (Json.Obj (("workload", str !workload) :: fields)));
  exit (match List.assoc "ok" fields with Json.Bool true -> 0 | _ -> 1)
