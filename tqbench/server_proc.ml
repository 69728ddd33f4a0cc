(* tq_serve as a child process: spawn on an ephemeral port, time it to
   its first answered echo, stop it with a drain, and make sure it is
   killed on every exit path. *)

open Common
module Protocol = Tq_serve.Protocol
module Client = Tq_serve.Client

type t = {
  pid : int;
  port : int;
  out : Unix.file_descr;  (** the child's stdout *)
  stats_out : string;
  spawned_ns : int;
}

(* Children not yet reaped; killed at exit whatever the path out. *)
let live : int list ref = ref []

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid : int * Unix.process_status) with Unix.Unix_error _ -> ())
    !live;
  live := []

let () =
  at_exit kill_all;
  (* a signalled benchmark still runs at_exit, so still reaps *)
  let bail _ = exit 2 in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle bail);
  Sys.set_signal Sys.sigint (Sys.Signal_handle bail);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let forget pid = live := List.filter (( <> ) pid) !live

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1) in
  go 0

(* Read the child's stdout until its "listening on HOST:PORT" line. *)
let read_port fd ~deadline_ns =
  let seen = Buffer.create 256 and chunk = Bytes.create 256 in
  let rec loop () =
    let left = float_of_int (deadline_ns - now_ns ()) /. 1e9 in
    if left <= 0.0 then failwith "tq_serve did not print its port in time";
    match Unix.select [ fd ] [] [] left with
    | [], _, _ -> loop ()
    | _ -> (
        let n = Unix.read fd chunk 0 (Bytes.length chunk) in
        if n = 0 then failwith ("tq_serve exited before listening: " ^ Buffer.contents seen);
        Buffer.add_subbytes seen chunk 0 n;
        let s = Buffer.contents seen in
        match find_sub s "listening on " with
        | Some i when String.contains_from s i '\n' ->
            Scanf.sscanf (String.sub s i (String.length s - i)) "listening on %[^:]:%d"
              (fun _ port -> port)
        | _ -> loop ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  loop ()

let spawn ~exe ~stats_out extra =
  if not (Sys.file_exists exe) then failwith ("tq_serve binary not found at " ^ exe);
  let spawned_ns = now_ns () in
  let r, w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let argv =
    [ exe; "--cores"; "1"; "--lanes"; "1"; "--port"; "0"; "--stats-out"; stats_out ] @ extra
  in
  let pid = Unix.create_process exe (Array.of_list argv) null w Unix.stderr in
  live := pid :: !live;
  Unix.close w;
  Unix.close null;
  let port = read_port r ~deadline_ns:(spawned_ns + 30_000_000_000) in
  { pid; port; out = r; stats_out; spawned_ns }

(* Echo until the first Ok; returns (seconds since spawn, requests
   sent) — the requests count toward the server's ledger. *)
let first_echo t =
  let c = Client.connect ~port:t.port () in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      let rec go sent =
        let r = Client.call c (Protocol.Echo { spin_ns = 1_000; payload = "ready" }) in
        match r.status with
        | Protocol.Ok ->
            check (r.body = "ready") "set-up echo returned %S" r.body;
            (seconds_since t.spawned_ns, sent)
        | _ when seconds_since t.spawned_ns < 30.0 -> go (sent + 1)
        | _ -> failwith "tq_serve answered no set-up echo Ok within 30 s"
      in
      go 1)

let stats t view =
  let c = Client.connect ~port:t.port () in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> Client.stats ~view c)

(* SIGTERM drains the server; its drain summary (--stats-out) is
   returned once it has exited cleanly. *)
let stop t =
  (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now_ns () + 20_000_000_000 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ when now_ns () < deadline ->
        Unix.sleepf 0.005;
        wait ()
    | 0, _ ->
        Unix.kill t.pid Sys.sigkill;
        ignore (Unix.waitpid [] t.pid : int * Unix.process_status);
        None
    | _, status -> Some status
  in
  let status = wait () in
  forget t.pid;
  Unix.close t.out;
  match status with
  | Some (Unix.WEXITED 0) -> (
      match Json.of_file t.stats_out with
      | Ok j -> j
      | Error e -> failwith ("unreadable drain summary: " ^ e))
  | Some (Unix.WEXITED n) -> raise (Check_failed (Printf.sprintf "tq_serve exited with code %d" n))
  | Some (Unix.WSIGNALED n | Unix.WSTOPPED n) -> failwith (Printf.sprintf "tq_serve died on signal %d" n)
  | None -> failwith "tq_serve did not drain within 20 s"

(* The drain summary's identities.  [accepted] is [dispatched], and a
   drained server has nothing in flight. *)
let check_summary summary ~sent =
  let get k = int_of_float (path_number summary k) in
  let parsed = get "parsed" and dispatched = get "dispatched" and shed = get "shed" in
  let completed = get "completed" and lost = get "lost" and dropped = get "dropped" in
  check (parsed = dispatched + shed) "parsed %d <> dispatched %d + shed %d" parsed dispatched shed;
  check
    (dispatched = completed + lost + dropped)
    "accepted %d <> completed %d + lost %d + dropped %d + in_flight 0" dispatched completed lost
    dropped;
  check (parsed = sent) "server parsed %d requests, the benchmark sent %d" parsed sent;
  check (get "protocol_errors" = 0) "server saw %d protocol errors" (get "protocol_errors")
