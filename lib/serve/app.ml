module Probe_api = Tq_runtime.Probe_api
module Transactions = Tq_tpcc.Transactions

type t = {
  kv : Tq_kv.Store.t;
  db : Tq_tpcc.Schema.t;
  rng : Tq_util.Prng.t;
}

(* [Printf.sprintf "%s%06d" prefix i], written digit by digit for the
   0..999_999 range every prefilled key lives in.  In a fresh process
   the 2048 [Printf] calls of a 1024-key prefill took 0.53-0.63 ms,
   this writer 0.05 ms (2-core x86-64 host). *)
let padded prefix i =
  if i < 0 || i > 999_999 then Printf.sprintf "%s%06d" prefix i
  else begin
    let n = String.length prefix in
    let b = Bytes.create (n + 6) in
    Bytes.blit_string prefix 0 b 0 n;
    let v = ref i in
    for k = n + 5 downto n do
      Bytes.unsafe_set b k (Char.unsafe_chr (48 + (!v mod 10)));
      v := !v / 10
    done;
    Bytes.unsafe_to_string b
  end

let kv_key i = padded "key" i
let kv_value i = padded "value" i

let create ?(kv_keys = 1024) ~seed () =
  let kv = Tq_kv.Store.create () in
  for i = 0 to kv_keys - 1 do
    Tq_kv.Store.put kv (kv_key i) (kv_value i)
  done;
  {
    kv;
    db = Tq_tpcc.Schema.create ~seed ();
    rng = Tq_util.Prng.create ~seed;
  }

(* The synthetic spin kernel: busy work probed every iteration, like a
   loop instrumented by the TQ pass.  Yields whenever the quantum
   expires.  The probe heads the loop body, so a spin that reaches its
   deadline returns without yielding once more. *)
let spin ~spin_ns =
  let deadline = Tq_util.Time_unit.now_ns () + spin_ns in
  let x = ref 1 in
  while Tq_util.Time_unit.now_ns () < deadline do
    Probe_api.probe ();
    (* a handful of ALU ops per probe so the probe itself is not the
       whole loop body *)
    for _ = 1 to 32 do
      x := (!x * 48271) land 0x3FFFFFFF
    done
  done;
  ignore (Sys.opaque_identity !x)

let outcome_body : Transactions.outcome -> string = function
  | Ordered { o_id; total } -> Printf.sprintf "ordered:%d:%d" o_id total
  | Paid { amount } -> Printf.sprintf "paid:%d" amount
  | Status { last_order; undelivered_lines } ->
      Printf.sprintf "status:%d:%d"
        (match last_order with Some o -> o | None -> -1)
        undelivered_lines
  | Delivered { orders } -> Printf.sprintf "delivered:%d" orders
  | Stock_low { count } -> Printf.sprintf "stock_low:%d" count

let execute t ~req_id (req : Protocol.request) =
  match
    match req with
    | Echo { spin_ns; payload } ->
        if spin_ns > 0 then spin ~spin_ns;
        payload
    (* No probe after an op's work: it would yield a finished request
       and hold its reply for a run-queue round. *)
    | Kv_get { key } -> (
        match Tq_kv.Store.get t.kv key with Some v -> "+" ^ v | None -> "-")
    | Kv_set { key; value } ->
        Tq_kv.Store.put t.kv key value;
        "+"
    | Tpcc { kind } -> outcome_body (Transactions.run t.db t.rng kind)
    | Stats _ ->
        (* Stats requests are answered at the dispatcher; one reaching a
           worker app is a server bug, not a client error. *)
        failwith "Stats request dispatched to a worker"
  with
  | body -> { Protocol.req_id; status = Protocol.Ok; body }
  | exception exn ->
      { Protocol.req_id; status = Protocol.Error (Printexc.to_string exn); body = "" }
