(* Tests for tq_util: PRNG, event queue, vectors, Fenwick tree, deque, tables. *)

module Prng = Tq_util.Prng
module Queue = Tq_util.Event_queue
module Ivec = Tq_util.Ivec
module Fenwick = Tq_util.Fenwick
module Deque = Tq_util.Ring_deque
module Text_table = Tq_util.Text_table
module Time_unit = Tq_util.Time_unit

let check = Alcotest.check
let qtest ?(count = 200) name gen prop = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* --- Prng --- *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:7L and b = Prng.create ~seed:7L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_copy_independent () =
  let a = Prng.create ~seed:7L in
  ignore (Prng.bits64 a);
  let b = Prng.copy a in
  check Alcotest.int64 "copy continues identically" (Prng.bits64 a) (Prng.bits64 b)

let test_prng_split_differs () =
  let a = Prng.create ~seed:7L in
  let b = Prng.split a in
  let xa = Prng.bits64 a and xb = Prng.bits64 b in
  Alcotest.(check bool) "split stream differs" true (xa <> xb)

let test_prng_int_bounds () =
  let r = Prng.create ~seed:1L in
  for _ = 1 to 10_000 do
    let v = Prng.int r 7 in
    Alcotest.(check bool) "in [0,7)" true (v >= 0 && v < 7)
  done

let test_prng_int_rejects_nonpositive () =
  let r = Prng.create ~seed:1L in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int r 0))

let test_prng_uniformity () =
  let r = Prng.create ~seed:3L in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let i = Prng.int r 10 in
    buckets.(i) <- buckets.(i) + 1
  done;
  Array.iter
    (fun c ->
      let f = float_of_int c /. float_of_int n in
      Alcotest.(check bool) "bucket within 10% of uniform" true
        (f > 0.09 && f < 0.11))
    buckets

let test_prng_exponential_mean () =
  let r = Prng.create ~seed:5L in
  let n = 200_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Prng.exponential r ~mean:42.0
  done;
  let m = !sum /. float_of_int n in
  Alcotest.(check bool) "mean close to 42" true (Float.abs (m -. 42.0) < 1.0)

let test_prng_float_range () =
  let r = Prng.create ~seed:9L in
  for _ = 1 to 10_000 do
    let v = Prng.float r 3.5 in
    Alcotest.(check bool) "in [0,3.5)" true (v >= 0.0 && v < 3.5)
  done

let test_prng_bernoulli () =
  let r = Prng.create ~seed:11L in
  let hits = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    if Prng.bernoulli r ~p:0.3 then incr hits
  done;
  let f = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "p close to 0.3" true (Float.abs (f -. 0.3) < 0.01)

let test_prng_choose_weighted () =
  let r = Prng.create ~seed:13L in
  let counts = Array.make 3 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let i = Prng.choose_weighted r [| 0.7; 0.0; 0.3 |] in
    counts.(i) <- counts.(i) + 1
  done;
  check Alcotest.int "zero-weight class never chosen" 0 counts.(1);
  let f0 = float_of_int counts.(0) /. float_of_int n in
  Alcotest.(check bool) "ratio respected" true (Float.abs (f0 -. 0.7) < 0.01)

let test_prng_shuffle_permutation () =
  let r = Prng.create ~seed:17L in
  let arr = Array.init 100 (fun i -> i) in
  Prng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check Alcotest.(array int) "is a permutation" (Array.init 100 (fun i -> i)) sorted

let test_prng_gaussian_moments () =
  let r = Prng.create ~seed:19L in
  let n = 200_000 in
  let sum = ref 0.0 and sq = ref 0.0 in
  for _ = 1 to n do
    let x = Prng.gaussian r in
    sum := !sum +. x;
    sq := !sq +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sq /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check bool) "mean ~ 0" true (Float.abs mean < 0.01);
  Alcotest.(check bool) "var ~ 1" true (Float.abs (var -. 1.0) < 0.02)

(* Golden values of the xoshiro256** stream for seed 42: any change to
   the state layout, the step or the int/float conversions shows here,
   and every simulated result depends on them. *)
let test_prng_golden_vectors () =
  let r = Prng.create ~seed:42L in
  check Alcotest.int64 "draw 1" 0x15780B2E0C2EC716L (Prng.bits64 r);
  check Alcotest.int64 "draw 2" 0x6104D9866D113A7EL (Prng.bits64 r);
  check Alcotest.int64 "draw 3" 0xAE17533239E499A1L (Prng.bits64 r);
  check Alcotest.int64 "split stream" 0x2A5A28083CF1C6E8L (Prng.bits64 (Prng.split r));
  check Alcotest.int "int" 369 (Prng.int r 1000);
  check (Alcotest.float 0.0) "float" 0.76973946043424246 (Prng.float r 1.0)

(* Minor-heap words allocated per call of [f], over [n] warm calls. *)
let minor_words_per_call ?(n = 10_000) f =
  f ();
  let before = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int n

let test_prng_int_allocation_free () =
  let r = Prng.create ~seed:1L in
  check (Alcotest.float 0.0) "power-of-two bound" 0.0
    (minor_words_per_call (fun () -> ignore (Prng.int r 16 : int)));
  check (Alcotest.float 0.0) "rejection-sampled bound" 0.0
    (minor_words_per_call (fun () -> ignore (Prng.int r 101 : int)))

(* --- Event_queue --- *)

let test_heap_sorts =
  qtest "heap pops in sorted order"
    QCheck.(list int)
    (fun keys ->
      let q = Queue.create () in
      List.iter (fun k -> Queue.push q ~key:k k) keys;
      let out = ref [] in
      while not (Queue.is_empty q) do
        let k = Queue.top_key q in
        ignore (Queue.pop q : int);
        out := k :: !out
      done;
      List.rev !out = List.sort compare keys)

let test_heap_fifo_ties () =
  let q = Queue.create () in
  Queue.push q ~key:5 1;
  Queue.push q ~key:5 2;
  Queue.push q ~key:5 3;
  check Alcotest.int "fifo 1" 1 (Queue.pop q);
  check Alcotest.int "fifo 2" 2 (Queue.pop q);
  check Alcotest.int "fifo 3" 3 (Queue.pop q)

let test_heap_top_key () =
  let q = Queue.create () in
  Alcotest.check_raises "empty" (Invalid_argument "Event_queue.top_key: empty queue")
    (fun () -> ignore (Queue.top_key q));
  Queue.push q ~key:9 90;
  Queue.push q ~key:2 20;
  check Alcotest.int "min" 2 (Queue.top_key q);
  check Alcotest.int "top_key does not remove" 2 (Queue.top_key q);
  check Alcotest.int "pop returns the min value" 20 (Queue.pop q);
  check Alcotest.int "next min" 9 (Queue.top_key q)

let test_heap_pop_empty () =
  let q = Queue.create () in
  Alcotest.check_raises "pop empty" (Invalid_argument "Event_queue.pop: empty queue")
    (fun () -> ignore (Queue.pop q))

let test_heap_interleaved =
  qtest "heap interleaved push/pop matches reference"
    QCheck.(list (pair bool small_int))
    (fun ops ->
      let q = Queue.create () in
      let reference = ref [] in
      List.for_all
        (fun (is_push, k) ->
          if is_push then begin
            Queue.push q ~key:k k;
            reference := List.sort compare (k :: !reference);
            true
          end
          else
            match !reference with
            | [] -> Queue.is_empty q
            | smallest :: rest ->
                let k' = Queue.top_key q in
                let v = Queue.pop q in
                reference := rest;
                k' = smallest && v = smallest)
        ops)

(* Traces shaped like a simulation's pending set: each phase grows the
   queue (pushes outnumber pops four to one) to up to 3000 entries, far
   past the 32-entry near tier, then drains it back the same way.  Keys
   are the last popped key plus a draw from the phase's range, which is
   often tiny, so most keys are duplicates; about one op in 3000 clears
   the queue.  [(op, draw)]: op 0 clears, 1 pops, 2 pushes. *)
let queue_trace =
  let open QCheck.Gen in
  let phase =
    let* grow = int_range 0 5000 and* range = oneofl [ 1; 4; 64; 100_000 ] in
    let step push_pct =
      pair (int_bound 9_999) (int_bound (range - 1)) >|= fun (r, d) ->
      ((if r < 3 then 0 else if r < 100 * (100 - push_pct) then 1 else 2), d)
    in
    let* up = list_repeat grow (step 80) and* down = list_repeat (grow + 50) (step 20) in
    return (up @ down)
  in
  QCheck.make
    ~print:(fun ops -> Printf.sprintf "<trace of %d ops>" (List.length ops))
    (list_size (int_range 1 3) phase >|= List.concat)

module Model = Set.Make (struct
  type t = int * int

  let compare = compare
end)

(* The model holds (key, push index) pairs, so its minimum is the next
   entry in (key, insertion order); every payload is its push index, so
   a pop that broke a tie the wrong way returns the wrong value. *)
let test_heap_model =
  qtest ~count:60 "heap push/pop/clear matches (key, insertion order) model" queue_trace
    (fun ops ->
      let q = Queue.create () in
      let model = ref Model.empty and pushed = ref 0 and now = ref 0 and ok = ref true in
      let expect b = if not b then ok := false in
      List.iter
        (fun (op, draw) ->
          if op = 0 then begin
            Queue.clear q;
            model := Model.empty
          end
          else if op = 1 then begin
            match Model.min_elt_opt !model with
            | None ->
                expect
                  (try
                     ignore (Queue.pop q : int);
                     false
                   with Invalid_argument _ -> true)
            | Some ((k, v) as min) ->
                expect (Queue.top_key q = k);
                expect (Queue.pop q = v);
                now := k;
                model := Model.remove min !model
          end
          else begin
            let v = !pushed in
            incr pushed;
            Queue.push q ~key:(!now + draw) v;
            model := Model.add (!now + draw, v) !model
          end;
          expect (Queue.length q = Model.cardinal !model);
          match Model.min_elt_opt !model with
          | None -> expect (Queue.is_empty q)
          | Some (k, _) -> expect (Queue.top_key q = k))
        ops;
      !ok)

(* Steady state at the size the simulator runs at: 16 pending entries,
   each step pops the head and pushes one entry a varied delay later. *)
let test_heap_allocation_free () =
  let q = Queue.create () in
  for i = 1 to 16 do
    Queue.push q ~key:(i * 37 mod 101) i
  done;
  let n = ref 0 in
  check (Alcotest.float 0.0) "push+top_key+pop at 16 entries" 0.0
    (minor_words_per_call (fun () ->
         incr n;
         Queue.push q ~key:(Queue.top_key q + 1 + (!n * 7919 land 255)) !n;
         ignore (Queue.top_key q + Queue.pop q : int)));
  check Alcotest.int "still 16 entries" 16 (Queue.length q)

(* --- Ivec --- *)

let test_ivec_basic () =
  let v = Ivec.create ~capacity:1 () in
  for i = 0 to 999 do
    Ivec.push v (999 - i)
  done;
  check Alcotest.int "length" 1000 (Ivec.length v);
  check Alcotest.int "get" 999 (Ivec.get v 0);
  check Alcotest.int "to_array last" 0 (Ivec.to_array v).(999)

(* --- Fenwick --- *)

let test_fenwick_vs_naive =
  qtest "fenwick prefix sums match naive"
    QCheck.(pair (int_bound 50) (list (pair (int_bound 49) (int_bound 10))))
    (fun (n, updates) ->
      let n = max n 1 in
      let f = Fenwick.create n in
      let naive = Array.make n 0 in
      List.iter
        (fun (i, d) ->
          let i = i mod n in
          Fenwick.add f i d;
          naive.(i) <- naive.(i) + d)
        updates;
      let ok = ref true in
      for i = 0 to n - 1 do
        let expected = Array.fold_left ( + ) 0 (Array.sub naive 0 (i + 1)) in
        if Fenwick.prefix_sum f i <> expected then ok := false
      done;
      !ok)

let test_fenwick_range () =
  let f = Fenwick.create 10 in
  for i = 0 to 9 do
    Fenwick.add f i (i + 1)
  done;
  check Alcotest.int "range [2,4]" (3 + 4 + 5) (Fenwick.range_sum f ~lo:2 ~hi:4);
  check Alcotest.int "empty range" 0 (Fenwick.range_sum f ~lo:4 ~hi:2);
  check Alcotest.int "total" 55 (Fenwick.total f)

(* --- Ring_deque --- *)

let test_deque_model =
  qtest "deque behaves like a list model"
    QCheck.(list (int_bound 3))
    (fun ops ->
      let d = Deque.create ~capacity:1 () in
      let model = ref [] in
      List.for_all
        (fun op ->
          match op with
          | 0 ->
              Deque.push_back d 1;
              model := !model @ [ 1 ];
              true
          | 1 ->
              Deque.push_front d 2;
              model := 2 :: !model;
              true
          | 2 -> (
              match !model with
              | [] -> Deque.is_empty d
              | y :: rest ->
                  model := rest;
                  Deque.pop_front d = y)
          | _ -> (
              match List.rev !model with
              | [] -> Deque.is_empty d
              | y :: rest ->
                  model := List.rev rest;
                  Deque.pop_back d = y))
        ops
      && Deque.to_list d = !model)

let test_deque_wraparound () =
  let d = Deque.create ~capacity:4 () in
  for i = 1 to 3 do
    Deque.push_back d i
  done;
  check Alcotest.int "pop 1" 1 (Deque.pop_front d);
  check Alcotest.int "pop 2" 2 (Deque.pop_front d);
  for i = 4 to 8 do
    Deque.push_back d i
  done;
  check Alcotest.int "length" 6 (Deque.length d);
  check Alcotest.(list int) "order preserved" [ 3; 4; 5; 6; 7; 8 ] (Deque.to_list d)

let test_deque_get () =
  let d = Deque.create () in
  List.iter (Deque.push_back d) [ 10; 20; 30 ];
  check Alcotest.int "get 1" 20 (Deque.get d 1);
  Alcotest.check_raises "oob" (Invalid_argument "Ring_deque.get: index out of bounds")
    (fun () -> ignore (Deque.get d 3))

let test_deque_empty_pop_raises () =
  let d : int Deque.t = Deque.create () in
  Alcotest.check_raises "pop_front" (Invalid_argument "Ring_deque.pop_front: empty deque")
    (fun () -> ignore (Deque.pop_front d));
  Alcotest.check_raises "pop_back" (Invalid_argument "Ring_deque.pop_back: empty deque")
    (fun () -> ignore (Deque.pop_back d))

(* A free slot holds an immediate filler.  Had the buffer been made
   from a float, it would be a flat float array, and the filler written
   into it on a pop would be read back as a float. *)
let test_deque_floats () =
  let d = Deque.create ~capacity:2 () in
  List.iter (Deque.push_back d) [ 1.5; 2.5; 3.5 ];
  Deque.push_front d 0.5;
  check (Alcotest.float 0.0) "pop_front" 0.5 (Deque.pop_front d);
  check (Alcotest.float 0.0) "pop_back" 3.5 (Deque.pop_back d);
  Deque.push_back d 4.5;
  Deque.push_front d (-1.0);
  check Alcotest.(list (float 0.0)) "contents" [ -1.0; 1.5; 2.5; 4.5 ] (Deque.to_list d);
  Deque.clear d;
  Deque.push_back d nan;
  check Alcotest.bool "nan survives" true (Float.is_nan (Deque.pop_front d))

(* Once the buffer holds the working set, a push and a pop write the
   element and the filler in place: no cell. *)
let test_deque_allocation_free () =
  let d = Deque.create () in
  for i = 1 to 8 do
    Deque.push_back d i
  done;
  let n = ref 0 in
  check (Alcotest.float 0.0) "push_back+pop_front at 8 entries" 0.0
    (minor_words_per_call (fun () ->
         incr n;
         Deque.push_back d !n;
         ignore (Deque.pop_front d : int)));
  check Alcotest.int "still 8 entries" 8 (Deque.length d)

(* --- Text_table --- *)

let test_table_render () =
  let t = Text_table.create ~title:"T" ~columns:[ "a"; "bb" ] in
  Text_table.add_row t [ "1"; "2" ];
  Text_table.add_row t [ "333"; "4" ];
  let s = Text_table.render t in
  Alcotest.(check bool) "contains title" true
    (String.length s > 0 && String.sub s 0 6 = "== T =");
  let index_of sub =
    let n = String.length s and m = String.length sub in
    let rec go i = if i + m > n then -1 else if String.sub s i m = sub then i else go (i + 1) in
    go 0
  in
  Alcotest.(check bool) "rows in insertion order" true
    (index_of "333" > index_of "1 " && index_of "333" >= 0)

let test_table_arity () =
  let t = Text_table.create ~title:"T" ~columns:[ "a" ] in
  Alcotest.check_raises "arity" (Invalid_argument "Text_table.add_row: arity mismatch")
    (fun () -> Text_table.add_row t [ "1"; "2" ])

let test_cell_formats () =
  check Alcotest.string "int commas" "1,234,567" (Text_table.cell_i 1234567);
  check Alcotest.string "small float" "1.500" (Text_table.cell_f 1.5);
  check Alcotest.string "nan" "-" (Text_table.cell_f nan)

(* --- Time_unit --- *)

let test_time_conversions () =
  check Alcotest.int "2.5us" 2500 (Time_unit.us 2.5);
  check Alcotest.int "1ms" 1_000_000 (Time_unit.ms 1.0);
  check (Alcotest.float 1e-9) "roundtrip" 2.5 (Time_unit.to_us (Time_unit.us 2.5));
  check Alcotest.int "cycles at 2.1GHz" 2100 (Time_unit.ns_to_cycles 1000);
  check Alcotest.int "ns from cycles" 1000 (Time_unit.cycles_to_ns 2100)

let suite =
  [
    Alcotest.test_case "prng deterministic" `Quick test_prng_deterministic;
    Alcotest.test_case "prng copy" `Quick test_prng_copy_independent;
    Alcotest.test_case "prng split" `Quick test_prng_split_differs;
    Alcotest.test_case "prng int bounds" `Quick test_prng_int_bounds;
    Alcotest.test_case "prng int rejects <=0" `Quick test_prng_int_rejects_nonpositive;
    Alcotest.test_case "prng uniformity" `Quick test_prng_uniformity;
    Alcotest.test_case "prng exponential mean" `Quick test_prng_exponential_mean;
    Alcotest.test_case "prng float range" `Quick test_prng_float_range;
    Alcotest.test_case "prng bernoulli" `Quick test_prng_bernoulli;
    Alcotest.test_case "prng choose_weighted" `Quick test_prng_choose_weighted;
    Alcotest.test_case "prng shuffle" `Quick test_prng_shuffle_permutation;
    Alcotest.test_case "prng gaussian moments" `Quick test_prng_gaussian_moments;
    Alcotest.test_case "prng golden vectors" `Quick test_prng_golden_vectors;
    Alcotest.test_case "prng int allocation-free" `Quick test_prng_int_allocation_free;
    test_heap_sorts;
    Alcotest.test_case "heap fifo ties" `Quick test_heap_fifo_ties;
    Alcotest.test_case "heap top_key" `Quick test_heap_top_key;
    Alcotest.test_case "heap pop empty" `Quick test_heap_pop_empty;
    test_heap_interleaved;
    test_heap_model;
    Alcotest.test_case "heap push+pop allocation-free" `Quick test_heap_allocation_free;
    Alcotest.test_case "ivec basic" `Quick test_ivec_basic;
    test_fenwick_vs_naive;
    Alcotest.test_case "fenwick range" `Quick test_fenwick_range;
    test_deque_model;
    Alcotest.test_case "deque wraparound" `Quick test_deque_wraparound;
    Alcotest.test_case "deque get" `Quick test_deque_get;
    Alcotest.test_case "deque empty pop raises" `Quick test_deque_empty_pop_raises;
    Alcotest.test_case "deque of floats" `Quick test_deque_floats;
    Alcotest.test_case "deque push+pop allocation-free" `Quick test_deque_allocation_free;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table arity" `Quick test_table_arity;
    Alcotest.test_case "cell formats" `Quick test_cell_formats;
    Alcotest.test_case "time conversions" `Quick test_time_conversions;
  ]

(* --- Ascii_chart --- *)

module Ascii_chart = Tq_util.Ascii_chart

let test_chart_renders_series () =
  let chart =
    Ascii_chart.render ~title:"T" ~width:20 ~height:8
      [
        { Ascii_chart.label = "up"; points = [ (0.0, 1.0); (1.0, 2.0); (2.0, 3.0) ] };
        { Ascii_chart.label = "down"; points = [ (0.0, 3.0); (1.0, 2.5); (2.0, 1.0) ] };
      ]
  in
  Alcotest.(check bool) "non-empty" true (String.length chart > 0);
  Alcotest.(check bool) "has title" true
    (String.length chart > 5 && String.sub chart 0 4 = ".. T");
  Alcotest.(check bool) "has legend" true
    (let has_sub needle =
       let n = String.length chart and m = String.length needle in
       let rec go i = i + m <= n && (String.sub chart i m = needle || go (i + 1)) in
       go 0
     in
     has_sub "* up" && has_sub "o down")

let test_chart_empty_when_insufficient () =
  check Alcotest.string "empty series" ""
    (Ascii_chart.render ~title:"T" [ { Ascii_chart.label = "x"; points = [] } ]);
  check Alcotest.string "single point" ""
    (Ascii_chart.render ~title:"T" [ { Ascii_chart.label = "x"; points = [ (1.0, 1.0) ] } ])

let test_chart_log_drops_nonpositive () =
  let chart =
    Ascii_chart.render ~title:"T" ~log_y:true
      [ { Ascii_chart.label = "x"; points = [ (0.0, 0.0); (1.0, 10.0); (2.0, 100.0) ] } ]
  in
  Alcotest.(check bool) "still renders from positive points" true (String.length chart > 0)

let test_chart_plot_table () =
  let t = Text_table.create ~title:"curve" ~columns:[ "load"; "sys-a"; "sys-b" ] in
  Text_table.add_row t [ "30%"; "1.5"; "2.5" ];
  Text_table.add_row t [ "60%"; "3.0"; "-" ];
  Text_table.add_row t [ "90%"; "9.0"; "4.5" ];
  let chart = Ascii_chart.plot_table t in
  Alcotest.(check bool) "renders" true (String.length chart > 0)

let test_chart_plot_table_non_numeric () =
  let t = Text_table.create ~title:"names" ~columns:[ "who"; "what" ] in
  Text_table.add_row t [ "alice"; "bob" ];
  Text_table.add_row t [ "carol"; "dan" ];
  check Alcotest.string "unplottable table is empty" "" (Ascii_chart.plot_table t)

let chart_suite =
  [
    Alcotest.test_case "chart renders" `Quick test_chart_renders_series;
    Alcotest.test_case "chart empty cases" `Quick test_chart_empty_when_insufficient;
    Alcotest.test_case "chart log drops" `Quick test_chart_log_drops_nonpositive;
    Alcotest.test_case "chart from table" `Quick test_chart_plot_table;
    Alcotest.test_case "chart non-numeric" `Quick test_chart_plot_table_non_numeric;
  ]

let suite = suite @ chart_suite

(* --- Json: the reader tqbench uses on the server's stats snapshots --- *)

module Json = Tq_util.Json

let test_json_round_trip () =
  let text = {|{"a": [1, 2.5, -300], "b": {"c": "x\"y\n"}, "d": true, "e": null}|} in
  match Json.of_string text with
  | Error e -> Alcotest.fail e
  | Ok v ->
      check Alcotest.string "renders back" text (Json.to_string v);
      check Alcotest.(option (float 0.0)) "member number" (Some (-300.0))
        (match Json.member "a" v with
        | Some (Json.List [ _; _; n ]) -> Json.number_opt n
        | _ -> None);
      Alcotest.(check bool) "trailing garbage rejected" true
        (Result.is_error (Json.of_string "{} x"))

let suite = suite @ [ Alcotest.test_case "json round trip" `Quick test_json_round_trip ]
