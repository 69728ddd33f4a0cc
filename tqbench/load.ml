(* The load generator: one thread, non-blocking connections, the wire
   format through Tq_serve.Protocol.

   Open loop: Poisson arrivals on a schedule fixed by the seed; every
   request is timed from its intended send time, so a late generator or
   a stalled server shows up in the latency, and the generator's own
   lag (actual minus intended send time) is reported.

   Every response is checked: each req_id is answered exactly once,
   bodies match their request class, and a KV GET sent after a SET on
   its key was acknowledged returns the value that was set. *)

open Common
module Protocol = Tq_serve.Protocol
module Prng = Tq_util.Prng
module Ivec = Tq_util.Ivec
module Transactions = Tq_tpcc.Transactions

type mix = {
  short : float;  (** 1 us echo *)
  kv : float;
  tpcc : float;
  set_frac : float;  (** share of KV requests that are SETs *)
}

(* tq_load's default mix: 70% 1 us echo, 25% KV with 30% SETs, 5% TPC-C *)
let default_mix =
  { short = 0.70; kv = 0.25; tpcc = 0.05; set_frac = 0.3 }

type config = {
  port : int;
  connections : int;
  rate_rps : float;  (** offered *)
  mix : mix;
  warmup_s : float;
  measure_s : float;
  grace_s : float;
  seed : int;
  timed : bool;  (** time every encode and decode (traced pass) *)
}

(* Request kinds: 0 short echo, 1 KV GET, 2 KV SET, 3 + i the i-th
   TPC-C transaction of [tpcc_kinds]. *)
let k_short = 0
let k_get = 1
let k_set = 2
let k_tpcc = 3

let tpcc_kinds =
  Transactions.[| New_order; Payment; Order_status; Delivery; Stock_level |]

let tpcc_prefix = [| "ordered:"; "paid:"; "status:"; "delivered:"; "stock_low:" |]
let class_names = [| "echo"; "kv_get"; "kv_set"; "tpcc" |]
let class_of_kind k = min k k_tpcc
let short_spin_ns = 1_000
let slo_ns = 1_000_000

(* tq_serve's default --kv-keys; every key starts as "value%06d". *)
let kv_keys = 1024

(* The measurement window is cut into [window_s] slices by intended send
   time (Ok counts by receive time); end-to-end figures are medians over
   the slices, so one multi-millisecond host stall moves one slice, not
   the run. *)
let window_s = 1.0

type window = {
  w_latency_us : float array;  (** Ok requests, ascending *)
  w_lag_p99_us : float;  (** the generator's lag over the slice's requests *)
  w_sent : int;
  w_ok_recv : int;  (** Ok responses received in the slice *)
}

type result = {
  sent : int;
  measured_sent : int;
  ok_in_window : int;
  latency_us : float array;  (** measured Ok requests, ascending *)
  class_latency_us : float array array;  (** per [class_names], ascending *)
  windows : window array;
  slo_ok : int;
  shed : int;
  unanswered : int;
  measured_failed : int;
  lag_us : float array;  (** actual minus intended send, ascending *)
  kv_verified : int;
  encode_ns : float;
  decode_ns : float;
  write_spans : string -> unit;
}

type conn = {
  fd : Unix.file_descr;
  rb : Protocol.Reassembly.t;
  out : Protocol.Outbuf.t;
  scratch : Buffer.t;
}

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.set_nonblock fd;
  { fd; rb = Protocol.Reassembly.create (); out = Protocol.Outbuf.create (); scratch = Buffer.create 256 }

let pending = 0
let st_ok = 1
let st_shed = 2

let run cfg =
  (* the garbage of an earlier run is collected now, not while the
     schedule is running *)
  Gc.full_major ();
  let rng = Prng.create ~seed:(Int64.of_int cfg.seed) in
  let conns = Array.init cfg.connections (fun _ -> connect cfg.port) in
  let fds = Array.to_list (Array.map (fun c -> c.fd) conns) in
  (* per-request columns, indexed by req_id *)
  let intended = Ivec.create ~capacity:65536 () and sent_at = Ivec.create ~capacity:65536 () in
  let recv_at = Ivec.create ~capacity:65536 () and status = Ivec.create ~capacity:65536 () in
  let kind = Ivec.create ~capacity:65536 () and key_of = Ivec.create ~capacity:65536 () in
  (* KV consistency: per key, SETs in flight, a version bumped by every
     SET sent, and the acknowledged value when it is unambiguous *)
  let sets_in_flight = Array.make kv_keys 0 and version = Array.make kv_keys 0 in
  let ambiguous = Array.make kv_keys false in
  let known = Array.init kv_keys (fun i -> Some (Printf.sprintf "value%06d" i)) in
  (* GET req_id -> (key version at send, expected value) *)
  let get_expect = Hashtbl.create 4096 in
  let set_value id = "v" ^ string_of_int id in
  let kv_verified = ref 0 in
  let enc_ns = ref 0 and dec_ns = ref 0 and decoded = ref 0 in
  let outstanding = ref 0 in
  let shed = ref 0 in
  let sample () =
    let total = cfg.mix.short +. cfg.mix.kv +. cfg.mix.tpcc in
    let r = Prng.float rng total in
    if r < cfg.mix.short then (k_short, -1)
    else if r < cfg.mix.short +. cfg.mix.kv then
      let key = Prng.int rng kv_keys in
      ((if Prng.bernoulli rng ~p:cfg.mix.set_frac then k_set else k_get), key)
    else
      let t = Transactions.sample_kind rng in
      let i = ref 0 in
      while tpcc_kinds.(!i) <> t do incr i done;
      (k_tpcc + !i, -1)
  in
  let send ci ~intended_ns ~now =
    let id = Ivec.length intended in
    let k, key = sample () in
    let req : Protocol.request =
      if k = k_short then Echo { spin_ns = short_spin_ns; payload = "" }
      else if k = k_get then begin
        (if sets_in_flight.(key) = 0 && not ambiguous.(key) then
           match known.(key) with
           | Some v -> Hashtbl.replace get_expect id (version.(key), v)
           | None -> ());
        Kv_get { key = Tq_serve.App.kv_key key }
      end
      else if k = k_set then begin
        let value = set_value id in
        if sets_in_flight.(key) > 0 then ambiguous.(key) <- true;
        sets_in_flight.(key) <- sets_in_flight.(key) + 1;
        version.(key) <- version.(key) + 1;
        Kv_set { key = Tq_serve.App.kv_key key; value }
      end
      else Tpcc { kind = tpcc_kinds.(k - k_tpcc) }
    in
    let c = conns.(ci) in
    Buffer.clear c.scratch;
    if cfg.timed then begin
      let t0 = now_ns () in
      Protocol.encode_request c.scratch ~req_id:id req;
      enc_ns := !enc_ns + (now_ns () - t0)
    end
    else Protocol.encode_request c.scratch ~req_id:id req;
    Protocol.Outbuf.add_buffer c.out c.scratch;
    Ivec.push intended intended_ns;
    Ivec.push sent_at now;
    Ivec.push recv_at (-1);
    Ivec.push status pending;
    Ivec.push kind k;
    Ivec.push key_of key;
    incr outstanding
  in
  let settle_set id key ok =
    sets_in_flight.(key) <- sets_in_flight.(key) - 1;
    if sets_in_flight.(key) = 0 then begin
      known.(key) <- (if ok && not ambiguous.(key) then Some (set_value id) else None);
      ambiguous.(key) <- false
    end
    else ambiguous.(key) <- true
  in
  let on_response ~now (resp : Protocol.response) =
    let id = resp.req_id in
    check (id >= 0 && id < Ivec.length status) "response for unknown req_id %d" id;
    check (Ivec.get status id = pending) "req_id %d answered twice" id;
    Ivec.set recv_at id now;
    decr outstanding;
    let k = Ivec.get kind id in
    (match resp.status with
    | Protocol.Ok ->
        Ivec.set status id st_ok;
        let body = resp.body in
        if k = k_short then check (body = "") "echo %d returned %S" id body
        else if k = k_set then begin
          check (body = "+") "SET %d returned %S" id body;
          settle_set id (Ivec.get key_of id) true
        end
        else if k = k_get then begin
          check (String.length body > 0 && body.[0] = '+') "GET %d of a stored key returned %S" id
            body;
          match Hashtbl.find_opt get_expect id with
          | Some (v, expected) when version.(Ivec.get key_of id) = v ->
              check
                (body = "+" ^ expected)
                "GET %d after an acknowledged SET returned %S, expected %S" id body
                ("+" ^ expected);
              incr kv_verified
          | _ -> ()
        end
        else
          let prefix = tpcc_prefix.(k - k_tpcc) in
          check
            (String.length body >= String.length prefix
            && String.sub body 0 (String.length prefix) = prefix)
            "TPC-C %d returned %S, expected %s..." id body prefix
    | Protocol.Shed ->
        Ivec.set status id st_shed;
        incr shed;
        if k = k_set then settle_set id (Ivec.get key_of id) false
    | Protocol.Error msg -> raise (Check_failed (Printf.sprintf "request %d raised: %s" id msg)));
    Hashtbl.remove get_expect id
  in
  let chunk = Bytes.create 65536 in
  let receive c =
    match Unix.read c.fd chunk 0 (Bytes.length chunk) with
    | 0 -> failwith "tq_serve closed a load connection"
    | n ->
        let now = now_ns () in
        Protocol.Reassembly.add c.rb chunk n;
        let rec parse () =
          match Protocol.Reassembly.next c.rb with
          | Error msg -> failwith ("bad frame from tq_serve: " ^ msg)
          | Ok None -> ()
          | Ok (Some payload) ->
              let resp =
                if cfg.timed then begin
                  let t0 = now_ns () in
                  let r = Protocol.decode_response payload in
                  dec_ns := !dec_ns + (now_ns () - t0);
                  incr decoded;
                  r
                end
                else Protocol.decode_response payload
              in
              (match resp with
              | Error msg -> failwith ("undecodable response: " ^ msg)
              | Ok resp -> on_response ~now resp);
              parse ()
        in
        parse ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  in
  let flush c =
    if not (Protocol.Outbuf.is_empty c.out) then
      let buf, off, len = Protocol.Outbuf.peek c.out in
      match Unix.write c.fd buf off len with
      | n -> Protocol.Outbuf.consume c.out n
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  in
  let t0 = now_ns () in
  let warm_end = t0 + int_of_float (cfg.warmup_s *. 1e9) in
  let measure_end = warm_end + int_of_float (cfg.measure_s *. 1e9) in
  let grace_end = ref max_int in
  let sending = ref true in
  let next_due = ref (float_of_int t0) in
  let mean_gap = 1e9 /. cfg.rate_rps in
  while !sending || (!outstanding > 0 && now_ns () < !grace_end) do
    let now = now_ns () in
    if !sending && now >= measure_end then begin
      sending := false;
      grace_end := now + int_of_float (cfg.grace_s *. 1e9)
    end;
    (* fire every arrival the schedule owes; the generator never waits
       for the server *)
    while !sending && int_of_float !next_due <= now do
      let due = int_of_float !next_due in
      send (Ivec.length intended mod Array.length conns) ~intended_ns:due ~now;
      next_due := !next_due +. Prng.exponential rng ~mean:mean_gap
    done;
    Array.iter flush conns;
    let timeout =
      if !sending then
        Float.max 0.0 ((!next_due -. float_of_int (now_ns ())) /. 1e9)
      else 0.01
    in
    let writers =
      Array.fold_left
        (fun acc c -> if Protocol.Outbuf.is_empty c.out then acc else c.fd :: acc)
        [] conns
    in
    match Unix.select fds writers [] timeout with
    | readable, _, _ ->
        Array.iter (fun c -> if List.memq c.fd readable then receive c) conns
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  Array.iter (fun c -> Unix.close c.fd) conns;
  (* summarise the measurement window *)
  let n = Ivec.length intended in
  let lat = ref [] and lag = ref [] and per_class = Array.make (Array.length class_names) [] in
  let measured_sent = ref 0 and measured_failed = ref 0 and slo_ok = ref 0 in
  let ok_in_window = ref 0 and unanswered = ref 0 in
  let window_ns = int_of_float (window_s *. 1e9) in
  (* whole slices only: a remainder of the window belongs to none, so
     every slice's rate is over the same length *)
  let n_windows = max 1 (int_of_float (cfg.measure_s /. window_s)) in
  let slice t =
    let w = (t - warm_end) / window_ns in
    if w < n_windows then Some w else None
  in
  let w_lat = Array.make n_windows [] and w_lag = Array.make n_windows [] in
  let w_sent = Array.make n_windows 0 in
  let w_recv = Array.make n_windows 0 in
  for id = 0 to n - 1 do
    let due = Ivec.get intended id and st = Ivec.get status id and r = Ivec.get recv_at id in
    if st = pending then incr unanswered;
    if st = st_ok && r >= warm_end && r < measure_end then begin
      incr ok_in_window;
      Option.iter (fun w -> w_recv.(w) <- w_recv.(w) + 1) (slice r)
    end;
    if due >= warm_end && due < measure_end then begin
      let w = slice due in
      incr measured_sent;
      Option.iter (fun w -> w_sent.(w) <- w_sent.(w) + 1) w;
      let late = float_of_int (Ivec.get sent_at id - due) /. 1e3 in
      lag := late :: !lag;
      Option.iter (fun w -> w_lag.(w) <- late :: w_lag.(w)) w;
      if st = st_ok then begin
        let us = float_of_int (r - due) /. 1e3 in
        lat := us :: !lat;
        Option.iter (fun w -> w_lat.(w) <- us :: w_lat.(w)) w;
        let cl = class_of_kind (Ivec.get kind id) in
        per_class.(cl) <- us :: per_class.(cl);
        if r - due <= slo_ns then incr slo_ok
      end
      else incr measured_failed
    end
  done;
  let windows =
    Array.init n_windows (fun w ->
        {
          w_latency_us = sorted_of_list w_lat.(w);
          w_lag_p99_us = percentile (sorted_of_list w_lag.(w)) 99.0;
          w_sent = w_sent.(w);
          w_ok_recv = w_recv.(w);
        })
  in
  let write_spans path =
    let oc = open_out path in
    output_string oc "req_id,class,intended_ns,sent_ns,recv_ns\n";
    for id = 0 to n - 1 do
      Printf.fprintf oc "%d,%s,%d,%d,%d\n" id
        class_names.(class_of_kind (Ivec.get kind id))
        (Ivec.get intended id - t0)
        (Ivec.get sent_at id - t0)
        (Ivec.get recv_at id - t0)
    done;
    close_out oc
  in
  {
    sent = n;
    measured_sent = !measured_sent;
    ok_in_window = !ok_in_window;
    latency_us = sorted_of_list !lat;
    class_latency_us = Array.map sorted_of_list per_class;
    windows;
    slo_ok = !slo_ok;
    shed = !shed;
    unanswered = !unanswered;
    measured_failed = !measured_failed;
    lag_us = sorted_of_list !lag;
    kv_verified = !kv_verified;
    encode_ns = float_of_int !enc_ns /. float_of_int (max 1 n);
    decode_ns = float_of_int !dec_ns /. float_of_int (max 1 !decoded);
    write_spans;
  }
