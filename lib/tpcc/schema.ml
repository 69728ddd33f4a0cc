module Prng = Tq_util.Prng

type warehouse = { mutable w_ytd : int }
type district = { mutable d_next_o_id : int; mutable d_ytd : int }

type customer = {
  c_last : string;
  mutable c_balance : int;
  mutable c_ytd_payment : int;
  mutable c_payment_cnt : int;
  mutable c_delivery_cnt : int;
}

type item = { i_price : int }
type stock = { mutable s_quantity : int; mutable s_ytd : int; mutable s_order_cnt : int }

type order = {
  o_c_id : int;
  o_entry_ns : int;
  mutable o_carrier_id : int option;
  o_ol_cnt : int;
}

type order_line = {
  ol_i_id : int;
  ol_quantity : int;
  ol_amount : int;
  mutable ol_delivered : bool;
}

type scale = {
  warehouses : int;
  districts_per_warehouse : int;
  customers_per_district : int;
  items : int;
}

let default_scale =
  { warehouses = 2; districts_per_warehouse = 10; customers_per_district = 100; items = 1000 }

type t = {
  sc : scale;
  warehouses_tbl : warehouse array;
  districts_tbl : district array;  (** w * D + d *)
  customers_tbl : customer array;  (** (w * D + d) * C + c *)
  items_tbl : item array;
  stocks_tbl : stock array;  (** w * items + i *)
  orders_tbl : (int * int * int, order) Hashtbl.t;
  order_lines_tbl : (int * int * int * int, order_line) Hashtbl.t;
  new_orders : int Tq_util.Ring_deque.t array;  (** per district *)
  last_order : (int * int * int, int) Hashtbl.t;  (** (w,d,c) -> o *)
}

let create ?(seed = 77L) ?(scale = default_scale) () =
  let rng = Prng.create ~seed in
  let sc = scale in
  let n_districts = sc.warehouses * sc.districts_per_warehouse in
  (* customer c is named [last_name (c mod 1000)]: build each name once
     and share it across districts *)
  let last_names =
    Array.init (min 1000 sc.customers_per_district) Nurand.last_name
  in
  {
    sc;
    warehouses_tbl = Array.init sc.warehouses (fun _ -> { w_ytd = 0 });
    districts_tbl = Array.init n_districts (fun _ -> { d_next_o_id = 1; d_ytd = 0 });
    customers_tbl =
      Array.init (n_districts * sc.customers_per_district) (fun idx ->
          let c = idx mod sc.customers_per_district in
          {
            c_last = last_names.(c mod 1000);
            c_balance = 0;
            c_ytd_payment = 0;
            c_payment_cnt = 0;
            c_delivery_cnt = 0;
          });
    items_tbl =
      Array.init sc.items (fun _ -> { i_price = 100 + Prng.int rng 9_901 });
    stocks_tbl =
      Array.init (sc.warehouses * sc.items) (fun _ ->
          { s_quantity = 10 + Prng.int rng 91; s_ytd = 0; s_order_cnt = 0 });
    orders_tbl = Hashtbl.create 4096;
    order_lines_tbl = Hashtbl.create 16_384;
    new_orders = Array.init n_districts (fun _ -> Tq_util.Ring_deque.create ());
    last_order = Hashtbl.create 1024;
  }

let scale t = t.sc

let check cond = if not cond then raise Not_found

let warehouse t ~w =
  check (w >= 0 && w < t.sc.warehouses);
  t.warehouses_tbl.(w)

let district_index t ~w ~d =
  check (w >= 0 && w < t.sc.warehouses && d >= 0 && d < t.sc.districts_per_warehouse);
  (w * t.sc.districts_per_warehouse) + d

let district t ~w ~d = t.districts_tbl.(district_index t ~w ~d)

let customer t ~w ~d ~c =
  check (c >= 0 && c < t.sc.customers_per_district);
  t.customers_tbl.((district_index t ~w ~d * t.sc.customers_per_district) + c)

let customers_by_last_name t ~w ~d name =
  let base = district_index t ~w ~d * t.sc.customers_per_district in
  let matches = ref [] in
  for c = t.sc.customers_per_district - 1 downto 0 do
    if t.customers_tbl.(base + c).c_last = name then matches := c :: !matches
  done;
  !matches

let item t ~i =
  check (i >= 0 && i < t.sc.items);
  t.items_tbl.(i)

let stock t ~w ~i =
  check (w >= 0 && w < t.sc.warehouses && i >= 0 && i < t.sc.items);
  t.stocks_tbl.((w * t.sc.items) + i)

let insert_order t ~w ~d ~o order =
  Hashtbl.replace t.orders_tbl (w, d, o) order;
  Hashtbl.replace t.last_order (w, d, order.o_c_id) o

let order t ~w ~d ~o = Hashtbl.find_opt t.orders_tbl (w, d, o)

let insert_order_line t ~w ~d ~o ~ol line =
  Hashtbl.replace t.order_lines_tbl (w, d, o, ol) line

let order_line t ~w ~d ~o ~ol = Hashtbl.find_opt t.order_lines_tbl (w, d, o, ol)

let push_new_order t ~w ~d ~o =
  Tq_util.Ring_deque.push_back t.new_orders.(district_index t ~w ~d) o

let pop_new_order t ~w ~d =
  let q = t.new_orders.(district_index t ~w ~d) in
  if Tq_util.Ring_deque.is_empty q then None else Some (Tq_util.Ring_deque.pop_front q)

let new_order_depth t ~w ~d =
  Tq_util.Ring_deque.length t.new_orders.(district_index t ~w ~d)

let last_order_id t ~w ~d ~c = Hashtbl.find_opt t.last_order (w, d, c)
