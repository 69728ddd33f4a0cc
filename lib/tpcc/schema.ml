module Prng = Tq_util.Prng

type scale = {
  warehouses : int;
  districts_per_warehouse : int;
  customers_per_district : int;
  items : int;
}

let default_scale =
  { warehouses = 2; districts_per_warehouse = 10; customers_per_district = 100; items = 1000 }

(* An append-only int column in chunks of [1 lsl bits] ints.  A chunk
   is never copied once allocated: growth copies only the spine, one
   word per chunk. *)
module Col = struct
  type t = { bits : int; mutable chunks : int array array; mutable len : int }

  let create ~bits = { bits; chunks = [||]; len = 0 }
  let length c = c.len
  let get c i = c.chunks.(i lsr c.bits).(i land ((1 lsl c.bits) - 1))
  let set c i x = c.chunks.(i lsr c.bits).(i land ((1 lsl c.bits) - 1)) <- x

  let push c x =
    let k = c.len lsr c.bits and j = c.len land ((1 lsl c.bits) - 1) in
    if j = 0 then begin
      if k = Array.length c.chunks then begin
        let spine = Array.make (max 4 (2 * k)) [||] in
        Array.blit c.chunks 0 spine 0 k;
        c.chunks <- spine
      end;
      c.chunks.(k) <- Array.make (1 lsl c.bits) 0
    end;
    c.chunks.(k).(j) <- x;
    c.len <- c.len + 1
end

(* Packed order header, low bits first: carrier (4 bits, 0 = none),
   ol_cnt (4), c_id (20), index of the first line in [lines] (the other
   35).  Packed line: delivered (1 bit), quantity (4), amount in cents
   (24), item id (20). *)
let id_bits = 20
let max_ids = 1 lsl id_bits
let amount_bits = 24

let[@inline] field v ~shift ~bits = (v lsr shift) land ((1 lsl bits) - 1)
let h_carrier h = field h ~shift:0 ~bits:4
let h_ol_cnt h = field h ~shift:4 ~bits:4
let h_c_id h = field h ~shift:8 ~bits:id_bits
let h_first h = h lsr (8 + id_bits)

type order = int

type t = {
  sc : scale;
  last_names : string array;  (** customer c is named [last_names.(c mod 1000)] *)
  w_ytd : int array;  (** w *)
  d_next_o_id : int array;  (** w * D + d *)
  d_ytd : int array;
  c_balance : int array;  (** (w * D + d) * C + c *)
  c_ytd_payment : int array;
  c_payment_cnt : int array;
  c_delivery_cnt : int array;
  i_price : int array;  (** i *)
  s_quantity : int array;  (** w * items + i *)
  s_ytd : int array;
  s_order_cnt : int array;
  orders : Col.t;  (** packed headers, in insertion order *)
  lines : Col.t;  (** packed lines; an order's lines are contiguous *)
  order_index : Col.t array;  (** per district: o - 1 -> position in [orders] *)
  new_orders : int Tq_util.Ring_deque.t array;  (** per district *)
  last_order : int array;  (** (w * D + d) * C + c -> o, 0 = none *)
  item_stamp : int array;  (** i -> stamp of the set that holds it *)
  mutable stamp : int;
}

let create ?(seed = 77L) ?(scale = default_scale) () =
  let sc = scale in
  if
    sc.warehouses < 1 || sc.districts_per_warehouse < 1 || sc.customers_per_district < 1
    || sc.items < 1
  then invalid_arg "Schema.create: every scale count must be at least 1";
  if sc.customers_per_district > max_ids || sc.items > max_ids then
    invalid_arg "Schema.create: customer and item ids must fit 20 bits";
  let rng = Prng.create ~seed in
  let n_districts = sc.warehouses * sc.districts_per_warehouse in
  let n_customers = n_districts * sc.customers_per_district in
  (* Every fixed table is int columns, so building one allocates a
     single block and never makes [Array.init] force a minor collection
     for a fresh first element.  All stock quantities are drawn before
     any item price, the order the initial load has always had. *)
  let s_quantity = Array.init (sc.warehouses * sc.items) (fun _ -> 10 + Prng.int rng 91) in
  let i_price = Array.init sc.items (fun _ -> 100 + Prng.int rng 9_901) in
  {
    sc;
    last_names = Array.init (min 1000 sc.customers_per_district) Nurand.last_name;
    w_ytd = Array.make sc.warehouses 0;
    d_next_o_id = Array.make n_districts 1;
    d_ytd = Array.make n_districts 0;
    c_balance = Array.make n_customers 0;
    c_ytd_payment = Array.make n_customers 0;
    c_payment_cnt = Array.make n_customers 0;
    c_delivery_cnt = Array.make n_customers 0;
    i_price;
    s_quantity;
    s_ytd = Array.make (sc.warehouses * sc.items) 0;
    s_order_cnt = Array.make (sc.warehouses * sc.items) 0;
    orders = Col.create ~bits:10;
    lines = Col.create ~bits:12;
    order_index = Array.init n_districts (fun _ -> Col.create ~bits:8);
    new_orders = Array.init n_districts (fun _ -> Tq_util.Ring_deque.create ());
    last_order = Array.make n_customers 0;
    item_stamp = Array.make sc.items 0;
    stamp = 1;
  }

let scale t = t.sc

let check cond = if not cond then raise Not_found

let warehouse_index t ~w =
  check (w >= 0 && w < t.sc.warehouses);
  w

let district_index t ~w ~d =
  check (w >= 0 && w < t.sc.warehouses && d >= 0 && d < t.sc.districts_per_warehouse);
  (w * t.sc.districts_per_warehouse) + d

let customer_index t ~w ~d ~c =
  check (c >= 0 && c < t.sc.customers_per_district);
  (district_index t ~w ~d * t.sc.customers_per_district) + c

let item_index t ~i =
  check (i >= 0 && i < t.sc.items);
  i

let stock_index t ~w ~i =
  check (w >= 0 && w < t.sc.warehouses && i >= 0 && i < t.sc.items);
  (w * t.sc.items) + i

let w_ytd t = t.w_ytd
let d_next_o_id t = t.d_next_o_id
let d_ytd t = t.d_ytd
let c_balance t = t.c_balance
let c_ytd_payment t = t.c_ytd_payment
let c_payment_cnt t = t.c_payment_cnt
let c_delivery_cnt t = t.c_delivery_cnt
let i_price t = t.i_price
let s_quantity t = t.s_quantity
let s_ytd t = t.s_ytd
let s_order_cnt t = t.s_order_cnt

let c_last t ~w ~d ~c =
  ignore (customer_index t ~w ~d ~c : int);
  t.last_names.(c mod 1000)

let customers_by_last_name t ~w ~d name =
  ignore (district_index t ~w ~d : int);
  let matches = ref [] in
  for c = t.sc.customers_per_district - 1 downto 0 do
    if t.last_names.(c mod 1000) = name then matches := c :: !matches
  done;
  !matches

let fits v ~bits = v >= 0 && v < 1 lsl bits

let insert_order t ~w ~d ~o ~c ~ol_cnt =
  let index = t.order_index.(district_index t ~w ~d) in
  if o <> Col.length index + 1 then
    invalid_arg "Schema.insert_order: o must be one past the district's newest order";
  if c < 0 || c >= t.sc.customers_per_district || not (fits ol_cnt ~bits:4) then
    invalid_arg "Schema.insert_order: customer or line count out of range";
  let g = Col.length t.orders in
  if g > 0 then begin
    let h = Col.get t.orders (g - 1) in
    if h_first h + h_ol_cnt h <> Col.length t.lines then
      invalid_arg "Schema.insert_order: the newest order lacks lines"
  end;
  Col.push t.orders
    ((Col.length t.lines lsl (8 + id_bits)) lor (c lsl 8) lor (ol_cnt lsl 4));
  Col.push index g;
  t.last_order.(customer_index t ~w ~d ~c) <- o;
  g

let order t ~w ~d ~o =
  let index = t.order_index.(district_index t ~w ~d) in
  if o >= 1 && o <= Col.length index then Some (Col.get index (o - 1)) else None

let order_c_id t g = h_c_id (Col.get t.orders g)
let order_carrier t g = h_carrier (Col.get t.orders g)
let order_ol_cnt t g = h_ol_cnt (Col.get t.orders g)

let set_carrier t g carrier =
  if carrier < 1 || carrier > 15 then invalid_arg "Schema.set_carrier: carrier in [1, 15]";
  Col.set t.orders g ((Col.get t.orders g land lnot 15) lor carrier)

let insert_order_line t g ~ol ~i ~quantity ~amount =
  let h = Col.get t.orders g in
  if g <> Col.length t.orders - 1 || ol >= h_ol_cnt h || ol <> Col.length t.lines - h_first h
  then invalid_arg "Schema.insert_order_line: ol must be the newest order's next line";
  if i < 0 || i >= t.sc.items || not (fits quantity ~bits:4 && fits amount ~bits:amount_bits)
  then invalid_arg "Schema.insert_order_line: item, quantity or amount out of range";
  Col.push t.lines ((i lsl (5 + amount_bits)) lor (amount lsl 5) lor (quantity lsl 1))

let line_index t g ~ol =
  let h = Col.get t.orders g in
  let l = h_first h + ol in
  check (ol >= 0 && ol < h_ol_cnt h && l < Col.length t.lines);
  l

let line t g ~ol = Col.get t.lines (line_index t g ~ol)
let line_item t g ~ol = field (line t g ~ol) ~shift:(5 + amount_bits) ~bits:id_bits
let line_quantity t g ~ol = field (line t g ~ol) ~shift:1 ~bits:4
let line_amount t g ~ol = field (line t g ~ol) ~shift:5 ~bits:amount_bits
let line_delivered t g ~ol = line t g ~ol land 1 = 1

let deliver_line t g ~ol =
  let l = line_index t g ~ol in
  Col.set t.lines l (Col.get t.lines l lor 1)

let push_new_order t ~w ~d ~o =
  Tq_util.Ring_deque.push_back t.new_orders.(district_index t ~w ~d) o

let pop_new_order t ~w ~d =
  let q = t.new_orders.(district_index t ~w ~d) in
  if Tq_util.Ring_deque.is_empty q then None else Some (Tq_util.Ring_deque.pop_front q)

let new_order_depth t ~w ~d =
  Tq_util.Ring_deque.length t.new_orders.(district_index t ~w ~d)

let last_order_id t ~w ~d ~c =
  match t.last_order.(customer_index t ~w ~d ~c) with 0 -> None | o -> Some o

let clear_items t = t.stamp <- t.stamp + 1

let add_item t ~i =
  check (i >= 0 && i < t.sc.items);
  if t.item_stamp.(i) = t.stamp then false
  else begin
    t.item_stamp.(i) <- t.stamp;
    true
  end
