(* A deliberately minimal HTTP/1.1 exposition listener: enough protocol
   for Prometheus scrapers, curl and load balancer health checks, and
   nothing more.  One accept thread, one short-lived thread per
   connection, Connection: close on every response — the endpoint is a
   control-plane sidecar, not a data-plane server, so the classic
   thread-per-request shape is the right simplicity/robustness trade
   here (the RPC plane never touches these threads). *)

type t = {
  sock : Unix.file_descr;
  t_port : int;
  stopped : bool Atomic.t;
  accept_thread : Thread.t;
}

let http_date () =
  (* RFC 7231 IMF-fixdate, hand-rolled: no external date dependency. *)
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  let day = [| "Sun"; "Mon"; "Tue"; "Wed"; "Thu"; "Fri"; "Sat" |] in
  let mon =
    [| "Jan"; "Feb"; "Mar"; "Apr"; "May"; "Jun";
       "Jul"; "Aug"; "Sep"; "Oct"; "Nov"; "Dec" |]
  in
  Printf.sprintf "%s, %02d %s %04d %02d:%02d:%02d GMT" day.(tm.Unix.tm_wday)
    tm.Unix.tm_mday mon.(tm.Unix.tm_mon) (1900 + tm.Unix.tm_year)
    tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  (try
     while !off < n do
       off := !off + Unix.write fd b !off (n - !off)
     done
   with Unix.Unix_error _ -> ())

let respond fd ~status ~content_type body =
  let head =
    Printf.sprintf
      "HTTP/1.1 %s\r\nDate: %s\r\nContent-Type: %s\r\n\
       Content-Length: %d\r\nConnection: close\r\n\r\n"
      status (http_date ()) content_type (String.length body)
  in
  write_all fd (head ^ body)

(* Read until the end of the request head (CRLFCRLF) or the peer stops
   sending; we only need the request line, so any body is ignored. *)
let read_head fd =
  let buf = Buffer.create 512 in
  let chunk = Bytes.create 512 in
  let rec go () =
    if Buffer.length buf > 16384 then Buffer.contents buf
    else
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 | (exception Unix.Unix_error _) -> Buffer.contents buf
      | n ->
          Buffer.add_subbytes buf chunk 0 n;
          let s = Buffer.contents buf in
          let has_end =
            let rec scan i =
              i >= 0
              && (String.sub s i 4 = "\r\n\r\n" || scan (i - 1))
            in
            String.length s >= 4 && scan (String.length s - 4)
          in
          if has_end then s else go ()
  in
  go ()

(* A view the server cannot render in its configuration (e.g. tail
   forensics off) is a 404 carrying the Stats RPC's error message. *)
let respond_view fd ~content_type = function
  | Ok body -> respond fd ~status:"200 OK" ~content_type body
  | Error msg -> respond fd ~status:"404 Not Found" ~content_type:"text/plain" (msg ^ "\n")

let handle server fd =
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let head = read_head fd in
      match String.index_opt head '\r' with
      | None -> respond fd ~status:"400 Bad Request" ~content_type:"text/plain" "bad request\n"
      | Some eol -> (
          let line = String.sub head 0 eol in
          match String.split_on_char ' ' line with
          | [ meth; target; _version ] when meth = "GET" || meth = "HEAD" -> (
              (* Strip any query string: /metrics?x=y serves /metrics. *)
              let path =
                match String.index_opt target '?' with
                | Some q -> String.sub target 0 q
                | None -> target
              in
              match path with
              | "/metrics" ->
                  respond_view fd
                    ~content_type:"text/plain; version=0.0.4; charset=utf-8"
                    (Server.render_stats server Protocol.Stats_text)
              | "/outliers" ->
                  respond_view fd ~content_type:"application/json; charset=utf-8"
                    (Server.render_stats server (Protocol.Stats_outliers { limit = 0 }))
              | "/healthz" ->
                  if Server.draining server then
                    respond fd ~status:"503 Service Unavailable"
                      ~content_type:"text/plain" "draining\n"
                  else respond fd ~status:"200 OK" ~content_type:"text/plain" "ok\n"
              | _ ->
                  respond fd ~status:"404 Not Found" ~content_type:"text/plain"
                    "not found: try /metrics, /outliers or /healthz\n")
          | _ :: _ :: _ ->
              respond fd ~status:"405 Method Not Allowed"
                ~content_type:"text/plain" "GET only\n"
          | _ ->
              respond fd ~status:"400 Bad Request" ~content_type:"text/plain"
                "bad request\n"))

let start ?(host = "127.0.0.1") ~port server =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  (try Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
   with e ->
     Unix.close sock;
     raise e);
  Unix.listen sock 16;
  let t_port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  let stopped = Atomic.make false in
  let accept_thread =
    Thread.create
      (fun () ->
        let rec loop () =
          match Unix.accept sock with
          | fd, _ ->
              ignore (Thread.create (handle server) fd);
              loop ()
          | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) ->
              (* stop closed the listening socket under us: done *)
              ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) ->
              if not (Atomic.get stopped) then loop ()
        in
        loop ())
      ()
  in
  { sock; t_port; stopped; accept_thread }

let port t = t.t_port

let stop t =
  if not (Atomic.exchange t.stopped true) then (
    (* shutdown, not just close: on Linux, close alone does not wake a
       thread blocked in accept on the same fd — shutdown does, with
       EINVAL, which the accept loop treats as the shutdown signal. *)
    (try Unix.shutdown t.sock Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    (try Unix.close t.sock with Unix.Unix_error _ -> ());
    Thread.join t.accept_thread)
