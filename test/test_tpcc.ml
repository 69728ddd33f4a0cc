(* Tests for tq_tpcc: schema integrity and transaction invariants. *)

open Tq_tpcc
module Prng = Tq_util.Prng

let check = Alcotest.check
let fresh_db () = Schema.create ~seed:9L ()

let test_initial_load () =
  let db = fresh_db () in
  let sc = Schema.scale db in
  check Alcotest.int "warehouses" 2 sc.warehouses;
  check Alcotest.int "ytd starts 0" 0 (Schema.w_ytd db).(Schema.warehouse_index db ~w:0);
  check Alcotest.int "next order id" 1
    (Schema.d_next_o_id db).(Schema.district_index db ~w:1 ~d:9);
  let s = (Schema.s_quantity db).(Schema.stock_index db ~w:0 ~i:0) in
  Alcotest.(check bool) "stock in range" true (s >= 10 && s <= 100);
  let p = (Schema.i_price db).(Schema.item_index db ~i:500) in
  Alcotest.(check bool) "price in range" true (p >= 100 && p <= 10_000)

let test_bad_ids_rejected () =
  let db = fresh_db () in
  Alcotest.check_raises "bad warehouse" Not_found (fun () ->
      ignore (Schema.warehouse_index db ~w:99));
  Alcotest.check_raises "bad customer" Not_found (fun () ->
      ignore (Schema.customer_index db ~w:0 ~d:0 ~c:1000))

let test_new_order_effects () =
  let db = fresh_db () in
  let rng = Prng.create ~seed:1L in
  match Transactions.new_order db rng with
  | Transactions.Ordered { o_id; total } ->
      check Alcotest.int "first order id" 1 o_id;
      Alcotest.(check bool) "positive total" true (total > 0);
      (* Exactly one district advanced its counter and queued the order. *)
      let advanced = ref 0 and queued = ref 0 in
      for w = 0 to 1 do
        for d = 0 to 9 do
          if (Schema.d_next_o_id db).(Schema.district_index db ~w ~d) = 2 then incr advanced;
          queued := !queued + Schema.new_order_depth db ~w ~d
        done
      done;
      check Alcotest.int "one district advanced" 1 !advanced;
      check Alcotest.int "one new-order entry" 1 !queued
  | _ -> Alcotest.fail "expected Ordered"

let test_new_order_lines_match_total () =
  let db = fresh_db () in
  let rng = Prng.create ~seed:2L in
  match Transactions.new_order db rng with
  | Transactions.Ordered { o_id; total } ->
      (* Find the order and re-sum its lines. *)
      let found = ref false in
      for w = 0 to 1 do
        for d = 0 to 9 do
          match Schema.order db ~w ~d ~o:o_id with
          | Some order when not !found ->
              found := true;
              let sum = ref 0 in
              for ol = 0 to Schema.order_ol_cnt db order - 1 do
                match Schema.line_amount db order ~ol with
                | amount ->
                    Alcotest.(check bool) "undelivered" false
                      (Schema.line_delivered db order ~ol);
                    sum := !sum + amount
                | exception Not_found -> Alcotest.fail "missing order line"
              done;
              check Alcotest.int "lines sum to total" total !sum
          | _ -> ()
        done
      done;
      Alcotest.(check bool) "order found" true !found
  | _ -> Alcotest.fail "expected Ordered"

let test_payment_conservation () =
  let db = fresh_db () in
  let rng = Prng.create ~seed:3L in
  let paid = ref 0 in
  for _ = 1 to 200 do
    match Transactions.payment db rng with
    | Transactions.Paid { amount } -> paid := !paid + amount
    | _ -> Alcotest.fail "expected Paid"
  done;
  let warehouse_ytd = Array.fold_left ( + ) 0 (Schema.w_ytd db) in
  check Alcotest.int "warehouse ytd = sum payments" !paid warehouse_ytd;
  let district_ytd = ref 0 in
  for w = 0 to 1 do
    for d = 0 to 9 do
      district_ytd := !district_ytd + (Schema.d_ytd db).(Schema.district_index db ~w ~d)
    done
  done;
  check Alcotest.int "district ytd = sum payments" !paid !district_ytd

let test_delivery_drains_queue () =
  let db = fresh_db () in
  let rng = Prng.create ~seed:4L in
  for _ = 1 to 50 do
    ignore (Transactions.new_order db rng)
  done;
  let pending w =
    let total = ref 0 in
    for d = 0 to 9 do
      total := !total + Schema.new_order_depth db ~w ~d
    done;
    !total
  in
  let before = pending 0 + pending 1 in
  check Alcotest.int "fifty pending" 50 before;
  match Transactions.delivery db rng with
  | Transactions.Delivered { orders } ->
      Alcotest.(check bool) "delivered some" true (orders > 0);
      check Alcotest.int "queue drained by that many" (before - orders) (pending 0 + pending 1)
  | _ -> Alcotest.fail "expected Delivered"

let test_delivery_credits_customer () =
  let db = fresh_db () in
  let rng = Prng.create ~seed:5L in
  (* Total customer balance starts at 0; new orders do not change it,
     deliveries credit line totals. *)
  for _ = 1 to 30 do
    ignore (Transactions.new_order db rng)
  done;
  let total_balance () =
    let acc = ref 0 in
    for w = 0 to 1 do
      for d = 0 to 9 do
        for c = 0 to 99 do
          acc := !acc + (Schema.c_balance db).(Schema.customer_index db ~w ~d ~c)
        done
      done
    done;
    !acc
  in
  check Alcotest.int "balance zero before delivery" 0 (total_balance ());
  (match Transactions.delivery db rng with
  | Transactions.Delivered { orders } -> Alcotest.(check bool) "delivered" true (orders > 0)
  | _ -> Alcotest.fail "expected Delivered");
  Alcotest.(check bool) "balances credited" true (total_balance () > 0)

let test_order_status_after_delivery () =
  let db = fresh_db () in
  let rng = Prng.create ~seed:6L in
  for _ = 1 to 100 do
    ignore (Transactions.new_order db rng)
  done;
  (* Every order is undelivered at this point. *)
  (match Transactions.order_status db rng with
  | Transactions.Status { last_order = Some _; undelivered_lines } ->
      Alcotest.(check bool) "some undelivered lines" true (undelivered_lines > 0)
  | Transactions.Status { last_order = None; _ } -> () (* customer without orders *)
  | _ -> Alcotest.fail "expected Status");
  (* Deliver everything, then every status query reports zero. *)
  for _ = 1 to 200 do
    ignore (Transactions.delivery db rng)
  done;
  for _ = 1 to 20 do
    match Transactions.order_status db rng with
    | Transactions.Status { undelivered_lines; _ } ->
        check Alcotest.int "no undelivered lines" 0 undelivered_lines
    | _ -> Alcotest.fail "expected Status"
  done

let test_stock_level_counts () =
  let db = fresh_db () in
  let rng = Prng.create ~seed:7L in
  for _ = 1 to 50 do
    ignore (Transactions.new_order db rng)
  done;
  match Transactions.stock_level db rng with
  | Transactions.Stock_low { count } -> Alcotest.(check bool) "count sane" true (count >= 0)
  | _ -> Alcotest.fail "expected Stock_low"

let test_stock_never_negative () =
  let db = fresh_db () in
  let rng = Prng.create ~seed:8L in
  for _ = 1 to 500 do
    ignore (Transactions.new_order db rng)
  done;
  let sc = Schema.scale db in
  for w = 0 to sc.warehouses - 1 do
    for i = 0 to sc.items - 1 do
      Alcotest.(check bool) "stock >= 0" true
        ((Schema.s_quantity db).(Schema.stock_index db ~w ~i) >= 0)
    done
  done

let test_mix_ratios () =
  let rng = Prng.create ~seed:10L in
  let counts = Hashtbl.create 5 in
  let n = 100_000 in
  for _ = 1 to n do
    let k = Transactions.sample_kind rng in
    Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))
  done;
  let frac k = float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts k)) /. float_of_int n in
  Alcotest.(check bool) "payment ~44%" true (Float.abs (frac Transactions.Payment -. 0.44) < 0.01);
  Alcotest.(check bool) "new order ~44%" true
    (Float.abs (frac Transactions.New_order -. 0.44) < 0.01);
  Alcotest.(check bool) "delivery ~4%" true
    (Float.abs (frac Transactions.Delivery -. 0.04) < 0.005)

let test_service_times_match_table1 () =
  check Alcotest.int "payment" 5_700 (Transactions.service_time_ns Transactions.Payment);
  check Alcotest.int "order status" 6_000
    (Transactions.service_time_ns Transactions.Order_status);
  check Alcotest.int "new order" 20_000 (Transactions.service_time_ns Transactions.New_order);
  check Alcotest.int "delivery" 88_000 (Transactions.service_time_ns Transactions.Delivery);
  check Alcotest.int "stock level" 100_000
    (Transactions.service_time_ns Transactions.Stock_level)

let test_run_dispatch () =
  let db = fresh_db () in
  let rng = Prng.create ~seed:11L in
  (match Transactions.run db rng Transactions.Payment with
  | Transactions.Paid _ -> ()
  | _ -> Alcotest.fail "dispatch payment");
  match Transactions.run db rng Transactions.New_order with
  | Transactions.Ordered _ -> ()
  | _ -> Alcotest.fail "dispatch new order"

let suite =
  [
    Alcotest.test_case "initial load" `Quick test_initial_load;
    Alcotest.test_case "bad ids" `Quick test_bad_ids_rejected;
    Alcotest.test_case "new order effects" `Quick test_new_order_effects;
    Alcotest.test_case "order lines total" `Quick test_new_order_lines_match_total;
    Alcotest.test_case "payment conservation" `Quick test_payment_conservation;
    Alcotest.test_case "delivery drains queue" `Quick test_delivery_drains_queue;
    Alcotest.test_case "delivery credits customer" `Quick test_delivery_credits_customer;
    Alcotest.test_case "order status" `Quick test_order_status_after_delivery;
    Alcotest.test_case "stock level" `Quick test_stock_level_counts;
    Alcotest.test_case "stock never negative" `Quick test_stock_never_negative;
    Alcotest.test_case "mix ratios" `Quick test_mix_ratios;
    Alcotest.test_case "service times" `Quick test_service_times_match_table1;
    Alcotest.test_case "run dispatch" `Quick test_run_dispatch;
  ]

(* --- Consistency checker --- *)

let test_consistency_clean_db () =
  let db = fresh_db () in
  check Alcotest.(list string) "fresh db consistent" [] (Consistency.check db)

let test_consistency_after_mixed_load () =
  let db = fresh_db () in
  let rng = Prng.create ~seed:31L in
  for _ = 1 to 2_000 do
    let kind = Transactions.sample_kind rng in
    ignore (Transactions.run db rng kind)
  done;
  check Alcotest.(list string) "consistent after 2000 transactions" []
    (Consistency.check db);
  Consistency.check_exn db

let test_consistency_detects_corruption () =
  let db = fresh_db () in
  let rng = Prng.create ~seed:32L in
  for _ = 1 to 50 do
    ignore (Transactions.new_order db rng)
  done;
  (* Corrupt: bump a warehouse YTD without touching districts. *)
  let w_ytd = Schema.w_ytd db and w0 = Schema.warehouse_index db ~w:0 in
  w_ytd.(w0) <- w_ytd.(w0) + 1;
  Alcotest.(check bool) "violation reported" true (Consistency.check db <> []);
  Alcotest.(check bool) "check_exn raises" true
    (try
       Consistency.check_exn db;
       false
     with Failure _ -> true)

let consistency_suite =
  [
    Alcotest.test_case "consistency clean" `Quick test_consistency_clean_db;
    Alcotest.test_case "consistency after load" `Quick test_consistency_after_mixed_load;
    Alcotest.test_case "consistency detects corruption" `Quick
      test_consistency_detects_corruption;
  ]

let suite = suite @ consistency_suite

(* --- NURand and last-name selection --- *)

let test_nurand_bounds () =
  let rng = Prng.create ~seed:41L in
  for _ = 1 to 10_000 do
    let v = Nurand.nurand rng ~a:255 ~x:10 ~y:20 ~c:7 in
    Alcotest.(check bool) "in range" true (v >= 10 && v <= 20)
  done

let test_nurand_skewed () =
  (* NURand concentrates mass: the most popular value should be drawn
     noticeably more often than uniform. *)
  let rng = Prng.create ~seed:43L in
  let n = 100 in
  let counts = Array.make n 0 in
  let draws = 100_000 in
  for _ = 1 to draws do
    let v = Nurand.nurand rng ~a:1023 ~x:0 ~y:(n - 1) ~c:259 mod n in
    counts.(v) <- counts.(v) + 1
  done;
  let max_count = Array.fold_left max 0 counts in
  let uniform = draws / n in
  Alcotest.(check bool)
    (Printf.sprintf "hottest %d vs uniform %d" max_count uniform)
    true
    (max_count > 2 * uniform)

let test_last_name_syllables () =
  check Alcotest.string "0" "BARBARBAR" (Nurand.last_name 0);
  check Alcotest.string "371" "PRICALLYOUGHT" (Nurand.last_name 371);
  check Alcotest.string "999" "EINGEINGEING" (Nurand.last_name 999);
  Alcotest.check_raises "range" (Invalid_argument "Nurand.last_name: n in [0, 999]")
    (fun () -> ignore (Nurand.last_name 1000))

let test_customers_by_last_name () =
  let db = fresh_db () in
  (* Customer c carries last_name (c mod 1000); with 100 customers every
     name below 100 maps to exactly one id. *)
  let name = Nurand.last_name 42 in
  check Alcotest.(list int) "index finds the row" [ 42 ]
    (Schema.customers_by_last_name db ~w:0 ~d:0 name);
  check Alcotest.(list int) "missing name" []
    (Schema.customers_by_last_name db ~w:1 ~d:3 (Nurand.last_name 500))

let test_payment_by_name_touches_named_customer () =
  let db = fresh_db () in
  let rng = Prng.create ~seed:47L in
  (* Run many payments; customers selected by name must exist, so total
     payment counts equal the number of transactions. *)
  let n = 500 in
  for _ = 1 to n do
    match Transactions.payment db rng with
    | Transactions.Paid _ -> ()
    | _ -> Alcotest.fail "expected Paid"
  done;
  let total_payments = ref 0 in
  for w = 0 to 1 do
    for d = 0 to 9 do
      for c = 0 to 99 do
        total_payments :=
          !total_payments + (Schema.c_payment_cnt db).(Schema.customer_index db ~w ~d ~c)
      done
    done
  done;
  check Alcotest.int "every payment landed on a real customer" n !total_payments

let test_item_popularity_skewed () =
  (* NURand item selection concentrates orders on hot items. *)
  let db = fresh_db () in
  let rng = Prng.create ~seed:49L in
  for _ = 1 to 400 do
    ignore (Transactions.new_order db rng)
  done;
  let sc = Schema.scale db in
  let counts =
    Array.init sc.items (fun i -> (Schema.s_order_cnt db).(Schema.stock_index db ~w:0 ~i))
  in
  Array.sort compare counts;
  let hottest = counts.(sc.items - 1) in
  let total = Array.fold_left ( + ) 0 counts in
  let uniform = float_of_int total /. float_of_int sc.items in
  Alcotest.(check bool)
    (Printf.sprintf "hottest item %d vs uniform %.1f" hottest uniform)
    true
    (float_of_int hottest > 3.0 *. uniform)

let nurand_suite =
  [
    Alcotest.test_case "nurand bounds" `Quick test_nurand_bounds;
    Alcotest.test_case "nurand skewed" `Quick test_nurand_skewed;
    Alcotest.test_case "last name syllables" `Quick test_last_name_syllables;
    Alcotest.test_case "customers by last name" `Quick test_customers_by_last_name;
    Alcotest.test_case "payment by name" `Quick test_payment_by_name_touches_named_customer;
    Alcotest.test_case "item popularity skewed" `Quick test_item_popularity_skewed;
  ]

let suite = suite @ nurand_suite

(* --- The initial load is a fixed function of seed and scale --- *)

(* Every row [Schema.create] builds, against the construction written
   out longhand: customer [c] of every district is named
   [Nurand.last_name (c mod 1000)], and stock quantities then item
   prices are drawn in that order from one PRNG seeded by [seed].
   The second scale has more than 1000 customers per district, so
   names repeat within a district. *)
let test_initial_load_rows () =
  List.iter
    (fun (seed, scale) ->
      let db = Schema.create ~seed ~scale () in
      let rng = Prng.create ~seed in
      let label what = Printf.sprintf "seed %Ld: %s" seed what in
      for w = 0 to scale.Schema.warehouses - 1 do
        for i = 0 to scale.items - 1 do
          let s = Schema.stock_index db ~w ~i in
          check Alcotest.(list int) (label "stock row")
            [ 10 + Prng.int rng 91; 0; 0 ]
            (List.map (fun col -> (col db).(s)) Schema.[ s_quantity; s_ytd; s_order_cnt ])
        done
      done;
      for i = 0 to scale.items - 1 do
        check Alcotest.int (label "item price")
          (100 + Prng.int rng 9_901)
          (Schema.i_price db).(Schema.item_index db ~i)
      done;
      for w = 0 to scale.warehouses - 1 do
        check Alcotest.int (label "warehouse ytd") 0
          (Schema.w_ytd db).(Schema.warehouse_index db ~w);
        for d = 0 to scale.districts_per_warehouse - 1 do
          let dist = Schema.district_index db ~w ~d in
          check Alcotest.(list int) (label "district row") [ 1; 0 ]
            (List.map (fun col -> (col db).(dist)) Schema.[ d_next_o_id; d_ytd ]);
          check Alcotest.int (label "no new orders") 0 (Schema.new_order_depth db ~w ~d);
          for c = 0 to scale.customers_per_district - 1 do
            let cu = Schema.customer_index db ~w ~d ~c in
            check Alcotest.string (label "c_last") (Nurand.last_name (c mod 1000))
              (Schema.c_last db ~w ~d ~c);
            check Alcotest.(list int) (label "customer counters") [ 0; 0; 0; 0 ]
              (List.map
                 (fun col -> (col db).(cu))
                 Schema.[ c_balance; c_ytd_payment; c_payment_cnt; c_delivery_cnt ]);
            check Alcotest.(option int) (label "no orders") None
              (Schema.last_order_id db ~w ~d ~c)
          done
        done
      done)
    [
      (77L, Schema.default_scale);
      ( 5L,
        { Schema.warehouses = 1; districts_per_warehouse = 2;
          customers_per_district = 2_345; items = 10 } );
    ]

let suite =
  suite @ [ Alcotest.test_case "initial load rows" `Quick test_initial_load_rows ]

(* --- Transcript pin: the store's layout must not move any outcome --- *)

let outcome_line : Transactions.outcome -> string = function
  | Ordered { o_id; total } -> Printf.sprintf "ordered:%d:%d" o_id total
  | Paid { amount } -> Printf.sprintf "paid:%d" amount
  | Status { last_order; undelivered_lines } ->
      Printf.sprintf "status:%d:%d" (Option.value ~default:(-1) last_order) undelivered_lines
  | Delivered { orders } -> Printf.sprintf "delivered:%d" orders
  | Stock_low { count } -> Printf.sprintf "stock_low:%d" count

(* 20k transactions at the Table 1 ratios from fixed seeds, digested
   outcome by outcome.  The digest was taken from the hash-table store
   this one replaced. *)
let test_transcript_pinned () =
  let db = Schema.create ~seed:21L () in
  let rng = Prng.create ~seed:22L in
  let buf = Buffer.create (1 lsl 18) in
  for _ = 1 to 20_000 do
    let kind = Transactions.sample_kind rng in
    Buffer.add_string buf (outcome_line (Transactions.run db rng kind));
    Buffer.add_char buf '\n'
  done;
  check Alcotest.string "outcome digest" "0317d47fb0433cee492f197792cac9fb"
    (Digest.to_hex (Digest.string (Buffer.contents buf)));
  check Alcotest.(list string) "consistent after the transcript" [] (Consistency.check db)

let suite =
  suite @ [ Alcotest.test_case "transcript pinned" `Quick test_transcript_pinned ]

(* --- The packed order store --- *)

(* Live heap words the order side keeps per NewOrder: the district
   index entry, the packed header, ~10 packed lines and the new-order
   queue entry.  The tuple-keyed hash tables this store replaced kept
   ~161; this store measured 13.9. *)
let test_order_growth_gate () =
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let db = fresh_db () in
  let rng = Prng.create ~seed:12L in
  let before = live () in
  let n = 10_000 in
  for _ = 1 to n do
    ignore (Transactions.new_order db rng)
  done;
  let per_order = float_of_int (live () - before) /. float_of_int n in
  ignore (Sys.opaque_identity db);
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per order <= 16" per_order)
    true (per_order <= 16.0)

let test_scale_must_fit_fields () =
  let rejects what scale =
    match Schema.create ~scale () with
    | _ -> Alcotest.failf "accepted %s" what
    | exception Invalid_argument _ -> ()
  in
  let d = Schema.default_scale in
  check Alcotest.int "ids are 20-bit fields" (1 lsl 20) Schema.max_ids;
  rejects "too many customers" { d with customers_per_district = Schema.max_ids + 1 };
  rejects "too many items" { d with items = Schema.max_ids + 1 };
  rejects "no warehouses" { d with warehouses = 0 };
  rejects "no items" { d with items = 0 }

(* Orders of two districts interleave in the shared columns; each reads
   back its own fields, and the store refuses what it cannot pack or
   what would break an order's run of lines. *)
let test_order_columns_round_trip () =
  let db = fresh_db () in
  let a = Schema.insert_order db ~w:0 ~d:3 ~o:1 ~c:99 ~ol_cnt:2 in
  Schema.insert_order_line db a ~ol:0 ~i:999 ~quantity:10 ~amount:100_000;
  Schema.insert_order_line db a ~ol:1 ~i:0 ~quantity:1 ~amount:100;
  let b = Schema.insert_order db ~w:1 ~d:3 ~o:1 ~c:7 ~ol_cnt:15 in
  let bad what f =
    match f () with
    | () -> Alcotest.failf "accepted %s" what
    | exception Invalid_argument _ -> ()
  in
  bad "a line of an older order" (fun () ->
      Schema.insert_order_line db a ~ol:1 ~i:1 ~quantity:1 ~amount:1);
  bad "a line out of turn" (fun () ->
      Schema.insert_order_line db b ~ol:1 ~i:1 ~quantity:1 ~amount:1);
  bad "an unpackable quantity" (fun () ->
      Schema.insert_order_line db b ~ol:0 ~i:1 ~quantity:16 ~amount:1);
  bad "an unknown item" (fun () ->
      Schema.insert_order_line db b ~ol:0 ~i:1000 ~quantity:1 ~amount:1);
  bad "an order while the newest lacks lines" (fun () ->
      ignore (Schema.insert_order db ~w:0 ~d:3 ~o:2 ~c:0 ~ol_cnt:1));
  for ol = 0 to 14 do
    Schema.insert_order_line db b ~ol ~i:(500 + ol) ~quantity:ol ~amount:(1 lsl 24 - 1)
  done;
  bad "a gap in the district's order ids" (fun () ->
      ignore (Schema.insert_order db ~w:0 ~d:3 ~o:3 ~c:0 ~ol_cnt:1));
  bad "a carrier past 15" (fun () -> Schema.set_carrier db a 16);
  Schema.set_carrier db a 10;
  Schema.deliver_line db a ~ol:1;
  let same o = Schema.order db ~w:0 ~d:3 ~o:1 = Some o in
  Alcotest.(check bool) "order finds the handle" true (same a);
  check Alcotest.(list int) "order a"
    [ 99; 10; 2; 999; 10; 100_000; 0; 1; 100 ]
    [ Schema.order_c_id db a; Schema.order_carrier db a; Schema.order_ol_cnt db a;
      Schema.line_item db a ~ol:0; Schema.line_quantity db a ~ol:0;
      Schema.line_amount db a ~ol:0; Schema.line_item db a ~ol:1;
      Schema.line_quantity db a ~ol:1; Schema.line_amount db a ~ol:1 ];
  check Alcotest.(list bool) "only the delivered line" [ false; true ]
    [ Schema.line_delivered db a ~ol:0; Schema.line_delivered db a ~ol:1 ];
  check Alcotest.(list int) "order b"
    [ 7; 0; 15; 514; 14; 1 lsl 24 - 1 ]
    [ Schema.order_c_id db b; Schema.order_carrier db b; Schema.order_ol_cnt db b;
      Schema.line_item db b ~ol:14; Schema.line_quantity db b ~ol:14;
      Schema.line_amount db b ~ol:14 ];
  Alcotest.check_raises "no line past ol_cnt" Not_found (fun () ->
      ignore (Schema.line_item db a ~ol:2));
  check Alcotest.(option int) "newest order of the customer" (Some 1)
    (Schema.last_order_id db ~w:1 ~d:3 ~c:7);
  Alcotest.(check bool) "no order 2 yet" true (Schema.order db ~w:0 ~d:3 ~o:2 = None);
  Schema.clear_items db;
  let first = Schema.add_item db ~i:5 in
  let again = Schema.add_item db ~i:5 in
  let other = Schema.add_item db ~i:6 in
  check Alcotest.(list bool) "item set" [ true; false; true ] [ first; again; other ];
  Schema.clear_items db;
  Alcotest.(check bool) "cleared" true (Schema.add_item db ~i:5)

let suite =
  suite
  @ [
      Alcotest.test_case "order growth gate" `Quick test_order_growth_gate;
      Alcotest.test_case "scale must fit fields" `Quick test_scale_must_fit_fields;
      Alcotest.test_case "order columns round trip" `Quick test_order_columns_round_trip;
    ]
