(** The five TPC-C transactions and the Table 1 mix. *)

type kind = Payment | Order_status | New_order | Delivery | Stock_level

val kind_name : kind -> string

(** Table 1 mix: Payment 44%, OrderStatus 4%, NewOrder 44%, Delivery 4%,
    StockLevel 4%. *)
val sample_kind : Tq_util.Prng.t -> kind

(** Table 1 service times in nanoseconds. *)
val service_time_ns : kind -> int

type outcome =
  | Ordered of { o_id : int; total : int }  (** new order placed *)
  | Paid of { amount : int }
  | Status of { last_order : int option; undelivered_lines : int }
  | Delivered of { orders : int }  (** orders delivered across districts *)
  | Stock_low of { count : int }  (** items under threshold *)

(** Each transaction picks its own inputs (warehouse, district, customer,
    items) from the PRNG, as the TPC-C driver would. *)

val new_order : Schema.t -> Tq_util.Prng.t -> outcome
val payment : Schema.t -> Tq_util.Prng.t -> outcome
val order_status : Schema.t -> Tq_util.Prng.t -> outcome
val delivery : Schema.t -> Tq_util.Prng.t -> outcome
val stock_level : Schema.t -> Tq_util.Prng.t -> outcome

(** [run db rng kind] dispatches on the kind. *)
val run : Schema.t -> Tq_util.Prng.t -> kind -> outcome
