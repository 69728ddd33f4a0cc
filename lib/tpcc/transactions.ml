module Prng = Tq_util.Prng

type kind = Payment | Order_status | New_order | Delivery | Stock_level

let kind_name = function
  | Payment -> "Payment"
  | Order_status -> "OrderStatus"
  | New_order -> "NewOrder"
  | Delivery -> "Delivery"
  | Stock_level -> "StockLevel"

let sample_kind rng =
  match Prng.choose_weighted rng [| 0.44; 0.04; 0.44; 0.04; 0.04 |] with
  | 0 -> Payment
  | 1 -> Order_status
  | 2 -> New_order
  | 3 -> Delivery
  | _ -> Stock_level

let service_time_ns kind =
  let us = Tq_util.Time_unit.us in
  match kind with
  | Payment -> us 5.7
  | Order_status -> us 6.0
  | New_order -> us 20.0
  | Delivery -> us 88.0
  | Stock_level -> us 100.0

type outcome =
  | Ordered of { o_id : int; total : int }
  | Paid of { amount : int }
  | Status of { last_order : int option; undelivered_lines : int }
  | Delivered of { orders : int }
  | Stock_low of { count : int }

let pick_warehouse db rng = Prng.int rng (Schema.scale db).warehouses
let pick_district db rng = Prng.int rng (Schema.scale db).districts_per_warehouse

(* Spec: customers by NURand(1023)-style skew (scaled to our row count),
   items by NURand(8191)-style skew. *)
let pick_customer db rng =
  let n = (Schema.scale db).customers_per_district in
  Nurand.nurand rng ~a:1023 ~x:0 ~y:(n - 1) ~c:259 mod n

let pick_item db rng =
  let n = (Schema.scale db).items in
  Nurand.nurand rng ~a:8191 ~x:0 ~y:(n - 1) ~c:7911 mod n

(* Spec: 60% of Payment/Order-Status select the customer by last name,
   taking the ceiling-median of the matching rows. *)
let pick_customer_for_lookup db rng ~w ~d =
  if Prng.bernoulli rng ~p:0.6 then begin
    let n = (Schema.scale db).customers_per_district in
    let name = Nurand.customer_last_name rng ~customers:n ~c:223 in
    match Schema.customers_by_last_name db ~w ~d name with
    | [] -> pick_customer db rng
    | matches -> List.nth matches (List.length matches / 2)
  end
  else pick_customer db rng

let new_order db rng =
  let w = pick_warehouse db rng and d = pick_district db rng in
  let c = pick_customer db rng in
  let next_o_id = Schema.d_next_o_id db and dist = Schema.district_index db ~w ~d in
  let o_id = next_o_id.(dist) in
  next_o_id.(dist) <- o_id + 1;
  let ol_cnt = 5 + Prng.int rng 11 in
  let order = Schema.insert_order db ~w ~d ~o:o_id ~c ~ol_cnt in
  let i_price = Schema.i_price db and s_quantity = Schema.s_quantity db in
  let s_ytd = Schema.s_ytd db and s_order_cnt = Schema.s_order_cnt db in
  let total = ref 0 in
  for ol = 0 to ol_cnt - 1 do
    let i = pick_item db rng in
    let quantity = 1 + Prng.int rng 10 in
    let price = i_price.(Schema.item_index db ~i) in
    let s = Schema.stock_index db ~w ~i in
    (* TPC-C replenishment rule: restock by 91 when running low. *)
    if s_quantity.(s) - quantity < 10 then s_quantity.(s) <- s_quantity.(s) + 91;
    s_quantity.(s) <- s_quantity.(s) - quantity;
    s_ytd.(s) <- s_ytd.(s) + quantity;
    s_order_cnt.(s) <- s_order_cnt.(s) + 1;
    let amount = quantity * price in
    total := !total + amount;
    Schema.insert_order_line db order ~ol ~i ~quantity ~amount
  done;
  Schema.push_new_order db ~w ~d ~o:o_id;
  Ordered { o_id; total = !total }

let payment db rng =
  let w = pick_warehouse db rng and d = pick_district db rng in
  let c = pick_customer_for_lookup db rng ~w ~d in
  let amount = 100 + Prng.int rng 500_000 in
  let wi = Schema.warehouse_index db ~w in
  let di = Schema.district_index db ~w ~d in
  let ci = Schema.customer_index db ~w ~d ~c in
  let w_ytd = Schema.w_ytd db and d_ytd = Schema.d_ytd db in
  let c_balance = Schema.c_balance db and c_ytd_payment = Schema.c_ytd_payment db in
  let c_payment_cnt = Schema.c_payment_cnt db in
  w_ytd.(wi) <- w_ytd.(wi) + amount;
  d_ytd.(di) <- d_ytd.(di) + amount;
  c_balance.(ci) <- c_balance.(ci) - amount;
  c_ytd_payment.(ci) <- c_ytd_payment.(ci) + amount;
  c_payment_cnt.(ci) <- c_payment_cnt.(ci) + 1;
  Paid { amount }

let order_status db rng =
  let w = pick_warehouse db rng and d = pick_district db rng in
  let c = pick_customer_for_lookup db rng ~w ~d in
  match Schema.last_order_id db ~w ~d ~c with
  | None -> Status { last_order = None; undelivered_lines = 0 }
  | Some o_id ->
      let order = Option.get (Schema.order db ~w ~d ~o:o_id) in
      let undelivered = ref 0 in
      for ol = 0 to Schema.order_ol_cnt db order - 1 do
        if not (Schema.line_delivered db order ~ol) then incr undelivered
      done;
      Status { last_order = Some o_id; undelivered_lines = !undelivered }

let delivery db rng =
  (* Deliver the oldest undelivered order of every district of one
     warehouse, as the TPC-C deferred-delivery batch does. *)
  let w = pick_warehouse db rng in
  let carrier = 1 + Prng.int rng 10 in
  let delivered = ref 0 in
  for d = 0 to (Schema.scale db).districts_per_warehouse - 1 do
    match Schema.pop_new_order db ~w ~d with
    | None -> ()
    | Some o_id ->
        let order = Option.get (Schema.order db ~w ~d ~o:o_id) in
        Schema.set_carrier db order carrier;
        let total = ref 0 in
        for ol = 0 to Schema.order_ol_cnt db order - 1 do
          Schema.deliver_line db order ~ol;
          total := !total + Schema.line_amount db order ~ol
        done;
        let ci = Schema.customer_index db ~w ~d ~c:(Schema.order_c_id db order) in
        let c_balance = Schema.c_balance db and c_delivery_cnt = Schema.c_delivery_cnt db in
        c_balance.(ci) <- c_balance.(ci) + !total;
        c_delivery_cnt.(ci) <- c_delivery_cnt.(ci) + 1;
        incr delivered
  done;
  Delivered { orders = !delivered }

let stock_level db rng =
  (* Count items with stock below a threshold among the last 20 orders
     of a district. *)
  let w = pick_warehouse db rng and d = pick_district db rng in
  let threshold = 10 + Prng.int rng 11 in
  let next = (Schema.d_next_o_id db).(Schema.district_index db ~w ~d) in
  let s_quantity = Schema.s_quantity db in
  Schema.clear_items db;
  let low = ref 0 in
  for o = max 1 (next - 20) to next - 1 do
    let order = Option.get (Schema.order db ~w ~d ~o) in
    for ol = 0 to Schema.order_ol_cnt db order - 1 do
      let i = Schema.line_item db order ~ol in
      if Schema.add_item db ~i && s_quantity.(Schema.stock_index db ~w ~i) < threshold then
        incr low
    done
  done;
  Stock_low { count = !low }

let run db rng kind =
  match kind with
  | New_order -> new_order db rng
  | Payment -> payment db rng
  | Order_status -> order_status db rng
  | Delivery -> delivery db rng
  | Stock_level -> stock_level db rng
