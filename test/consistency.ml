module Schema = Tq_tpcc.Schema

let check db =
  let sc = Schema.scale db in
  let violations = ref [] in
  let fail fmt = Format.kasprintf (fun s -> violations := s :: !violations) fmt in
  (* C1: warehouse YTD equals the sum of its districts' YTD. *)
  for w = 0 to sc.warehouses - 1 do
    let w_ytd = (Schema.w_ytd db).(Schema.warehouse_index db ~w) in
    let district_sum = ref 0 in
    for d = 0 to sc.districts_per_warehouse - 1 do
      district_sum := !district_sum + (Schema.d_ytd db).(Schema.district_index db ~w ~d)
    done;
    if w_ytd <> !district_sum then
      fail "warehouse %d: w_ytd %d <> sum of district ytd %d" w w_ytd !district_sum
  done;
  (* C2/C3: order ids are dense below d_next_o_id, and every order's
     line count matches its ol_cnt. *)
  for w = 0 to sc.warehouses - 1 do
    for d = 0 to sc.districts_per_warehouse - 1 do
      let next = (Schema.d_next_o_id db).(Schema.district_index db ~w ~d) in
      for o = 1 to next - 1 do
        match Schema.order db ~w ~d ~o with
        | None -> fail "district (%d,%d): missing order %d < next_o_id %d" w d o next
        | Some order ->
            let ol_cnt = Schema.order_ol_cnt db order in
            let lines = ref 0 in
            let delivered_lines = ref 0 in
            for ol = 0 to ol_cnt - 1 do
              match Schema.line_delivered db order ~ol with
              | delivered ->
                  incr lines;
                  if delivered then incr delivered_lines
              | exception Not_found -> ()
            done;
            if !lines <> ol_cnt then
              fail "order (%d,%d,%d): %d lines, expected %d" w d o !lines ol_cnt;
            (* C4: delivery is atomic per order. *)
            if Schema.order_carrier db order <> 0 then begin
              if !delivered_lines <> ol_cnt then
                fail "order (%d,%d,%d): delivered order with undelivered lines" w d o
            end
            else if !delivered_lines <> 0 then
              fail "order (%d,%d,%d): undelivered order with delivered lines" w d o
      done
    done
  done;
  (* C5: every queued new-order entry is an existing undelivered order. *)
  (* Pop/push to inspect without destroying state. *)
  for w = 0 to sc.warehouses - 1 do
    for d = 0 to sc.districts_per_warehouse - 1 do
      let depth = Schema.new_order_depth db ~w ~d in
      for _ = 1 to depth do
        match Schema.pop_new_order db ~w ~d with
        | None -> fail "district (%d,%d): queue depth lied" w d
        | Some o ->
            (match Schema.order db ~w ~d ~o with
            | None -> fail "district (%d,%d): queued order %d does not exist" w d o
            | Some order ->
                if Schema.order_carrier db order <> 0 then
                  fail "district (%d,%d): queued order %d already delivered" w d o);
            Schema.push_new_order db ~w ~d ~o
      done
    done
  done;
  (* C6: stock quantities are non-negative (replenishment rule). *)
  for w = 0 to sc.warehouses - 1 do
    for i = 0 to sc.items - 1 do
      if (Schema.s_quantity db).(Schema.stock_index db ~w ~i) < 0 then
        fail "stock (%d,%d): negative quantity" w i
    done
  done;
  List.rev !violations

let check_exn db =
  match check db with
  | [] -> ()
  | violations -> failwith ("TPC-C consistency violated:\n" ^ String.concat "\n" violations)
