(* Tests for tq_stats: exact percentiles and histograms. *)

module Sample_set = Tq_stats.Sample_set
module Histogram = Tq_stats.Histogram
module Prng = Tq_util.Prng

let check = Alcotest.check
let qtest ?(count = 100) name gen prop = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* --- Sample_set --- *)

let test_percentile_known () =
  let s = Sample_set.create () in
  for i = 1 to 100 do
    Sample_set.add s (float_of_int i)
  done;
  check (Alcotest.float 1e-9) "p50" 50.0 (Sample_set.percentile s 50.0);
  check (Alcotest.float 1e-9) "p99" 99.0 (Sample_set.percentile s 99.0);
  check (Alcotest.float 1e-9) "p100 = max" 100.0 (Sample_set.percentile s 100.0);
  check (Alcotest.float 1e-9) "p1" 1.0 (Sample_set.percentile s 1.0)

let test_percentile_unsorted_input () =
  let s = Sample_set.create () in
  List.iter (Sample_set.add s) [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  check (Alcotest.float 1e-9) "median of 5" 3.0 (Sample_set.percentile s 50.0)

let test_empty_stats () =
  let s = Sample_set.create () in
  Alcotest.(check bool) "nan percentile" true (Float.is_nan (Sample_set.percentile s 50.0));
  Alcotest.(check bool) "nan mean" true (Float.is_nan (Sample_set.mean s));
  check Alcotest.int "count" 0 (Sample_set.count s)

let test_percentile_bounds () =
  let s = Sample_set.create () in
  Sample_set.add s 1.0;
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Sample_set.percentile: p out of range") (fun () ->
      ignore (Sample_set.percentile s 101.0))

let test_sorted_copy_keeps_order () =
  let s = Sample_set.create () in
  List.iter (Sample_set.add s) [ 3.0; 1.0; 2.0 ];
  check Alcotest.(array (float 0.0)) "sorted" [| 1.0; 2.0; 3.0 |] (Sample_set.to_sorted_array s);
  check Alcotest.(list (float 0.0)) "insertion order kept" [ 3.0; 1.0; 2.0 ]
    (List.rev (Sample_set.fold (fun acc x -> x :: acc) [] s))

(* The store against a plain list; the mean must equal the
   left-to-right sum exactly ([Float.equal] holds between nans). *)
let matches_list_model xs =
  let s = Sample_set.create () in
  List.iter (Sample_set.add s) xs;
  let n = List.length xs in
  let sorted = Array.of_list (List.sort compare xs) in
  let nearest_rank p =
    if n = 0 then nan
    else
      let k = int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1 in
      sorted.(Int.max 0 (Int.min (n - 1) k))
  in
  Sample_set.count s = n
  && Float.equal (Sample_set.mean s) (List.fold_left ( +. ) 0.0 xs /. float_of_int n)
  && Sample_set.to_sorted_array s = sorted
  && List.for_all
       (fun p -> Float.equal (Sample_set.percentile s p) (nearest_rank p))
       [ 0.0; 0.1; 1.0; 25.0; 50.0; 75.0; 90.0; 99.0; 99.9; 99.99; 100.0 ]

let test_matches_list_model =
  qtest ~count:60 "sample set matches a list model"
    QCheck.(list_of_size (Gen.int_range 0 5000) (float_bound_exclusive 1000.0))
    matches_list_model

(* Each side of the first two segment boundaries (1024, 3072). *)
let test_segment_edges () =
  let rng = Prng.create ~seed:5L in
  List.iter
    (fun n ->
      let xs = List.init n (fun _ -> Prng.float rng 1000.0) in
      Alcotest.(check bool) (Printf.sprintf "%d samples match the model" n) true
        (matches_list_model xs))
    [ 1023; 1024; 1025; 3071; 3072; 3073 ]

(* 100,000 adds fill segments of 1024 .. 65536 floats: 130,048 words
   plus one header each.  A store that doubled by copying would
   allocate 261,120.  A full collection first leaves the heap room, so
   no collection in the loop promotes or allocates anything else. *)
let test_add_major_words () =
  let s = Sample_set.create () in
  Gc.full_major ();
  let before = (Gc.quick_stat ()).major_words in
  for i = 1 to 100_000 do
    Sample_set.add s (float_of_int i)
  done;
  let words = (Gc.quick_stat ()).major_words -. before in
  Alcotest.(check bool)
    (Printf.sprintf "100,000 adds allocate %.0f major words, at most 131,072" words)
    true (words <= 131_072.0);
  check Alcotest.int "count" 100_000 (Sample_set.count s)

let test_percentile_monotone =
  qtest "percentiles are monotone in p"
    QCheck.(list_of_size (Gen.int_range 1 50) (float_bound_exclusive 1000.0))
    (fun xs ->
      let s = Sample_set.create () in
      List.iter (Sample_set.add s) xs;
      let ps = [ 1.0; 25.0; 50.0; 90.0; 99.0; 100.0 ] in
      let vs = List.map (Sample_set.percentile s) ps in
      let rec mono = function
        | a :: (b :: _ as rest) -> a <= b && mono rest
        | _ -> true
      in
      mono vs)

(* --- Histogram --- *)

let test_histogram_exact_small () =
  (* Values below sub_buckets are recorded exactly. *)
  let h = Histogram.create ~sub_buckets:32 ~max_value:1000 () in
  List.iter (Histogram.record h) [ 1; 2; 3; 4; 5 ];
  check Alcotest.int "p50 exact" 3 (Histogram.percentile h 50.0);
  check Alcotest.int "p100 exact" 5 (Histogram.percentile h 100.0);
  check Alcotest.int "count" 5 (Histogram.count h)

let test_histogram_relative_error =
  qtest "histogram percentile relative error bounded"
    QCheck.(list_of_size (Gen.int_range 10 200) (int_range 1 1_000_000))
    (fun xs ->
      let h = Histogram.create ~sub_buckets:32 ~max_value:1_000_000 () in
      let s = Sample_set.create () in
      List.iter
        (fun x ->
          Histogram.record h x;
          Sample_set.add s (float_of_int x))
        xs;
      List.for_all
        (fun p ->
          let exact = Sample_set.percentile s p in
          let approx = float_of_int (Histogram.percentile h p) in
          Float.abs (approx -. exact) <= (exact /. 16.0) +. 1.0)
        [ 50.0; 90.0; 99.0 ])

let test_histogram_clamps () =
  let h = Histogram.create ~max_value:100 () in
  Histogram.record h 1_000_000;
  check Alcotest.int "clamped to max" 100 (Histogram.max_recorded h)

let test_histogram_fraction_above () =
  let h = Histogram.create ~sub_buckets:32 ~max_value:1000 () in
  for v = 1 to 10 do
    Histogram.record h v
  done;
  check (Alcotest.float 1e-9) "above 5" 0.5 (Histogram.fraction_above h 5);
  check (Alcotest.float 1e-9) "above 1000" 0.0 (Histogram.fraction_above h 1000)

let test_histogram_iter_buckets () =
  let h = Histogram.create ~sub_buckets:32 ~max_value:1000 () in
  Histogram.record_n h 7 ~count:5;
  let total = ref 0 in
  Histogram.iter_buckets h (fun ~lo ~hi ~count ->
      Alcotest.(check bool) "range covers value" true (lo <= 7 && 7 < hi);
      total := !total + count);
  check Alcotest.int "counts" 5 !total

let test_histogram_mean () =
  let h = Histogram.create ~sub_buckets:32 ~max_value:1000 () in
  List.iter (Histogram.record h) [ 10; 20; 30 ];
  check (Alcotest.float 0.5) "mean" 20.0 (Histogram.mean h)

let suite =
  [
    Alcotest.test_case "percentile known" `Quick test_percentile_known;
    Alcotest.test_case "percentile unsorted" `Quick test_percentile_unsorted_input;
    Alcotest.test_case "empty stats" `Quick test_empty_stats;
    Alcotest.test_case "percentile bounds" `Quick test_percentile_bounds;
    Alcotest.test_case "sorted copy keeps insertion order" `Quick test_sorted_copy_keeps_order;
    test_matches_list_model;
    Alcotest.test_case "sample set at segment edges" `Quick test_segment_edges;
    Alcotest.test_case "100k adds allocate the segments only" `Quick test_add_major_words;
    test_percentile_monotone;
    Alcotest.test_case "histogram exact small" `Quick test_histogram_exact_small;
    test_histogram_relative_error;
    Alcotest.test_case "histogram clamps" `Quick test_histogram_clamps;
    Alcotest.test_case "histogram fraction_above" `Quick test_histogram_fraction_above;
    Alcotest.test_case "histogram iter buckets" `Quick test_histogram_iter_buckets;
    Alcotest.test_case "histogram mean" `Quick test_histogram_mean;
  ]
