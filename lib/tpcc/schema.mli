(** Scaled-down in-memory TPC-C schema and database.

    The five-transaction OLTP workload supplies the paper's multi-modal
    service-time distribution (Table 1) and a realistic example
    application.  Money is in integer cents.

    Every table is flat int columns.  The fixed-size tables (warehouses,
    districts, customers, items, stock) are one [int array] per field,
    indexed by the row's composite key, so building them allocates no
    block per row.  The tables that grow with every NewOrder are one
    packed header per order, one packed int per order line, and per
    district a dense index from [o - 1] to the order's header.  Those
    columns grow in chunks that are never copied, so no insert copies a
    large array. *)

type t

type scale = {
  warehouses : int;
  districts_per_warehouse : int;
  customers_per_district : int;
  items : int;
}

(** A small but structurally faithful default: 2 warehouses, 10
    districts each, 100 customers per district, 1000 items. *)
val default_scale : scale

(** Customer and item ids are packed into 20-bit fields, so a scale has
    at most [max_ids] customers per district and [max_ids] items. *)
val max_ids : int

(** [create ?seed ?scale ()] loads initial data (stock ~ uniform 10-100,
    prices uniform 1-100 dollars).  Raises [Invalid_argument] for a
    scale with a count below 1 or ids that do not fit {!max_ids}. *)
val create : ?seed:int64 -> ?scale:scale -> unit -> t

val scale : t -> scale

(** {2 The fixed tables}

    A row is an index; a field is a column read or written at that
    index, as in [(s_quantity db).(stock_index db ~w ~i)].  The index
    functions raise [Not_found] for out-of-range ids. *)

val warehouse_index : t -> w:int -> int
val district_index : t -> w:int -> d:int -> int
val customer_index : t -> w:int -> d:int -> c:int -> int
val item_index : t -> i:int -> int
val stock_index : t -> w:int -> i:int -> int

(** Warehouse column, by {!warehouse_index}. *)
val w_ytd : t -> int array

(** District columns, by {!district_index}. *)

val d_next_o_id : t -> int array
val d_ytd : t -> int array

(** Customer columns, by {!customer_index}. *)

val c_balance : t -> int array
val c_ytd_payment : t -> int array
val c_payment_cnt : t -> int array
val c_delivery_cnt : t -> int array

(** Item column, by {!item_index}. *)
val i_price : t -> int array

(** Stock columns, by {!stock_index}. *)

val s_quantity : t -> int array
val s_ytd : t -> int array
val s_order_cnt : t -> int array

(** [c_last t ~w ~d ~c] — the spec last name: syllables of
    [c mod 1000], one string shared by every customer that has it. *)
val c_last : t -> w:int -> d:int -> c:int -> string

(** [customers_by_last_name t ~w ~d name] — ascending customer ids with
    that last name (the spec's secondary index). *)
val customers_by_last_name : t -> w:int -> d:int -> string -> int list

(** {2 Orders and order lines}

    An order is named by a handle that {!insert_order} returns and
    {!order} finds.  Its lines are numbered [0 .. order_ol_cnt - 1] and
    are inserted right after it, in that order. *)

type order = private int

(** [insert_order t ~w ~d ~o ~c ~ol_cnt] stores order [o] of customer
    [c], undelivered.  Order ids of a district are dense from 1, so [o]
    must be one past the district's newest order; [ol_cnt] is in
    [0, 15].  Raises [Invalid_argument] otherwise. *)
val insert_order : t -> w:int -> d:int -> o:int -> c:int -> ol_cnt:int -> order

(** [order t ~w ~d ~o] — the handle of order [o], if it exists. *)
val order : t -> w:int -> d:int -> o:int -> order option

val order_c_id : t -> order -> int

(** [order_carrier t o] — the carrier that delivered [o]; 0 while it is
    undelivered. *)
val order_carrier : t -> order -> int

val order_ol_cnt : t -> order -> int

(** [set_carrier t o carrier] records delivery; [carrier] is in [1, 15]. *)
val set_carrier : t -> order -> int -> unit

(** [insert_order_line t o ~ol ~i ~quantity ~amount] stores line [ol]
    of [o], undelivered.  Raises [Invalid_argument] unless [ol] is the
    order's next line, [quantity] is in [0, 15] and [amount] in
    [0, 2^24). *)
val insert_order_line : t -> order -> ol:int -> i:int -> quantity:int -> amount:int -> unit

(** Line accessors; raise [Not_found] for a line not stored. *)

val line_item : t -> order -> ol:int -> int
val line_quantity : t -> order -> ol:int -> int
val line_amount : t -> order -> ol:int -> int
val line_delivered : t -> order -> ol:int -> bool
val deliver_line : t -> order -> ol:int -> unit

(** New-order queue (per district, FIFO). *)

val push_new_order : t -> w:int -> d:int -> o:int -> unit
val pop_new_order : t -> w:int -> d:int -> int option
val new_order_depth : t -> w:int -> d:int -> int

(** [last_order_id t ~w ~d ~c] — newest order id of the customer, if
    any. *)
val last_order_id : t -> w:int -> d:int -> c:int -> int option

(** {2 An item set}

    StockLevel's distinct-items set, kept in the database so a query
    allocates none: one stamp per item. *)

(** [clear_items t] empties the set. *)
val clear_items : t -> unit

(** [add_item t ~i] adds item [i] and tells whether it was absent. *)
val add_item : t -> i:int -> bool
