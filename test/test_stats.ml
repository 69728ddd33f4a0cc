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

let test_mean_std () =
  let s = Sample_set.create () in
  List.iter (Sample_set.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  check (Alcotest.float 1e-9) "mean" 5.0 (Sample_set.mean s);
  check (Alcotest.float 1e-6) "sample std" (sqrt (32.0 /. 7.0)) (Sample_set.std_dev s);
  check (Alcotest.float 1e-9) "max" 9.0 (Sample_set.max_value s);
  check (Alcotest.float 1e-9) "min" 2.0 (Sample_set.min_value s)

let test_percentile_monotone =
  qtest "percentiles are monotone in p"
    QCheck.(list_of_size (Gen.int_range 1 50) (float_bound_exclusive 1000.0))
    (fun xs ->
      let s = Sample_set.create () in
      List.iter (Sample_set.add s) xs;
      let ps = [ 1.0; 25.0; 50.0; 90.0; 99.0; 100.0 ] in
      let vs = Sample_set.percentiles s ps in
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
    Alcotest.test_case "mean/std" `Quick test_mean_std;
    test_percentile_monotone;
    Alcotest.test_case "histogram exact small" `Quick test_histogram_exact_small;
    test_histogram_relative_error;
    Alcotest.test_case "histogram clamps" `Quick test_histogram_clamps;
    Alcotest.test_case "histogram fraction_above" `Quick test_histogram_fraction_above;
    Alcotest.test_case "histogram iter buckets" `Quick test_histogram_iter_buckets;
    Alcotest.test_case "histogram mean" `Quick test_histogram_mean;
  ]
