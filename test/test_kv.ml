(* Tests for tq_kv: skip list, SSTables, the LSM store. *)

open Tq_kv

let check = Alcotest.check

(* --- Skiplist --- *)

let test_skiplist_insert_find () =
  let sl = Skiplist.create () in
  Skiplist.insert sl "b" 2;
  Skiplist.insert sl "a" 1;
  Skiplist.insert sl "c" 3;
  check Alcotest.(option int) "find a" (Some 1) (Skiplist.find sl "a");
  check Alcotest.(option int) "find c" (Some 3) (Skiplist.find sl "c");
  check Alcotest.(option int) "missing" None (Skiplist.find sl "z");
  check Alcotest.int "length" 3 (Skiplist.length sl)

let test_skiplist_overwrite () =
  let sl = Skiplist.create () in
  Skiplist.insert sl "k" 1;
  Skiplist.insert sl "k" 2;
  check Alcotest.(option int) "overwritten" (Some 2) (Skiplist.find sl "k");
  check Alcotest.int "length unchanged" 1 (Skiplist.length sl)

let test_skiplist_sorted_iteration () =
  let sl = Skiplist.create () in
  List.iter (fun k -> Skiplist.insert sl k 0) [ "d"; "a"; "c"; "b"; "e" ];
  check
    Alcotest.(list string)
    "sorted" [ "a"; "b"; "c"; "d"; "e" ]
    (List.map fst (Skiplist.to_sorted_list sl))

let test_skiplist_iter_from () =
  let sl = Skiplist.create () in
  List.iter (fun k -> Skiplist.insert sl k 0) [ "a"; "b"; "c"; "d" ];
  let seen = ref [] in
  Skiplist.iter_from sl "b" (fun k _ ->
      seen := k :: !seen;
      List.length !seen < 2);
  check Alcotest.(list string) "from b, two entries" [ "b"; "c" ] (List.rev !seen)

let test_skiplist_min_max () =
  let sl = Skiplist.create () in
  check Alcotest.(option (pair string int)) "empty min" None (Skiplist.min_binding sl);
  List.iter (fun k -> Skiplist.insert sl k 0) [ "m"; "a"; "z" ];
  check Alcotest.(option (pair string int)) "min" (Some ("a", 0)) (Skiplist.min_binding sl);
  check Alcotest.(option (pair string int)) "max" (Some ("z", 0)) (Skiplist.max_binding sl)

let test_skiplist_model =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"skiplist matches Map model"
       QCheck.(list (pair (string_of_size (Gen.int_range 1 6)) small_int))
       (fun bindings ->
         let module M = Stdlib.Map.Make (String) in
         let sl = Skiplist.create () in
         let model =
           List.fold_left
             (fun m (k, v) ->
               Skiplist.insert sl k v;
               M.add k v m)
             M.empty bindings
         in
         M.for_all (fun k v -> Skiplist.find sl k = Some v) model
         && Skiplist.length sl = M.cardinal model
         && List.map fst (Skiplist.to_sorted_list sl) = List.map fst (M.bindings model)))

let test_skiplist_tracer () =
  let sl = Skiplist.create () in
  for i = 0 to 99 do
    Skiplist.insert sl (Printf.sprintf "%03d" i) i
  done;
  let touched = ref [] in
  Skiplist.set_tracer sl (Some (fun addr -> touched := addr :: !touched));
  ignore (Skiplist.find sl "050");
  Alcotest.(check bool) "lookup touched nodes" true (List.length !touched > 0);
  List.iter
    (fun addr -> Alcotest.(check bool) "aligned" true (addr mod 64 = 0))
    !touched

(* --- Sstable --- *)

let sorted_run l = Sstable.of_sorted ~base_address:0 l

let test_sstable_find () =
  let run = sorted_run [ ("a", 1); ("c", 3); ("e", 5) ] in
  check Alcotest.(option int) "hit" (Some 3) (Sstable.find run "c");
  check Alcotest.(option int) "miss between" None (Sstable.find run "b");
  check Alcotest.(option int) "miss after" None (Sstable.find run "z");
  check Alcotest.int "length" 3 (Sstable.length run)

let test_sstable_rejects_unsorted () =
  Alcotest.(check bool) "rejected" true
    (try
       ignore (sorted_run [ ("b", 1); ("a", 2) ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "duplicates rejected" true
    (try
       ignore (sorted_run [ ("a", 1); ("a", 2) ]);
       false
     with Invalid_argument _ -> true)

let test_sstable_iter_from () =
  let run = sorted_run [ ("a", 1); ("c", 3); ("e", 5) ] in
  let seen = ref [] in
  Sstable.iter_from run "b" (fun k v ->
      seen := (k, v) :: !seen;
      true);
  check Alcotest.(list (pair string int)) "from b" [ ("c", 3); ("e", 5) ] (List.rev !seen)

let test_sstable_merge_newest_wins () =
  let newest = [ ("a", 10); ("b", 20) ] in
  let oldest = [ ("a", 1); ("c", 3) ] in
  check
    Alcotest.(list (pair string int))
    "merged" [ ("a", 10); ("b", 20); ("c", 3) ]
    (Sstable.merge [ newest; oldest ])

let test_sstable_merge_many () =
  let r1 = [ ("b", 1) ] and r2 = [ ("a", 2) ] and r3 = [ ("c", 3); ("d", 4) ] in
  check
    Alcotest.(list (pair string int))
    "three runs" [ ("a", 2); ("b", 1); ("c", 3); ("d", 4) ]
    (Sstable.merge [ r1; r2; r3 ])

(* --- Store --- *)

let small_config = { Store.memtable_limit = 64; max_runs = 3; seed = 1L }

let test_store_get_put () =
  let s = Store.create ~config:small_config () in
  Store.put s "k1" "v1";
  Store.put s "k2" "v2";
  check Alcotest.(option string) "get k1" (Some "v1") (Store.get s "k1");
  check Alcotest.(option string) "missing" None (Store.get s "nope")

let test_store_overwrite_across_flushes () =
  let s = Store.create ~config:small_config () in
  (* 200 distinct keys force flushes (limit 64); then overwrite an old
     key so the fresh memtable shadows the run holding it. *)
  for i = 0 to 199 do
    Store.put s (Printf.sprintf "key%04d" i) "old"
  done;
  Alcotest.(check bool) "flushed at least once" true (Store.flushes s > 0);
  Store.put s "key0000" "new";
  check Alcotest.(option string) "newest wins" (Some "new") (Store.get s "key0000");
  check Alcotest.(option string) "others intact" (Some "old") (Store.get s "key0123")

let test_store_scan_merges_sources () =
  let s = Store.create ~config:small_config () in
  for i = 0 to 299 do
    Store.put s (Printf.sprintf "key%04d" i) (string_of_int i)
  done;
  let result = Store.scan s ~start:"key0100" ~limit:5 in
  check
    Alcotest.(list (pair string string))
    "five ascending"
    [
      ("key0100", "100");
      ("key0101", "101");
      ("key0102", "102");
      ("key0103", "103");
      ("key0104", "104");
    ]
    result

let test_store_scan_sees_fresh_memtable () =
  let s = Store.create ~config:small_config () in
  for i = 0 to 99 do
    Store.put s (Printf.sprintf "key%04d" i) "old"
  done;
  Store.put s "key0000" "new";
  (match Store.scan s ~start:"key0000" ~limit:1 with
  | [ ("key0000", v) ] -> check Alcotest.string "memtable shadows run" "new" v
  | _ -> Alcotest.fail "expected one binding");
  check Alcotest.(list (pair string string)) "empty scan" []
    (Store.scan s ~start:"zzz" ~limit:10)

let test_store_compaction_caps_runs () =
  let s = Store.create ~config:small_config () in
  for i = 0 to 999 do
    Store.put s (Printf.sprintf "key%06d" i) "x"
  done;
  Alcotest.(check bool) "compacted" true (Store.compactions s > 0);
  Alcotest.(check bool) "runs capped" true (Store.run_count s <= small_config.max_runs)

let test_store_model =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60 ~name:"store matches Map model across flush/compact"
       QCheck.(list (pair (int_bound 80) (string_of_size (Gen.int_range 1 4))))
       (fun ops ->
         let config = { Store.memtable_limit = 16; max_runs = 2; seed = 2L } in
         let s = Store.create ~config () in
         let module M = Stdlib.Map.Make (String) in
         let model =
           List.fold_left
             (fun m (k, v) ->
               let key = Printf.sprintf "k%03d" k in
               Store.put s key v;
               M.add key v m)
             M.empty ops
         in
         M.for_all (fun k v -> Store.get s k = Some v) model))

(* --- Bloom filter --- *)

let test_bloom_no_false_negatives =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"bloom: no false negatives"
       QCheck.(list_of_size (Gen.int_range 1 200) (string_of_size (Gen.int_range 1 10)))
       (fun keys ->
         let b = Bloom.of_keys keys in
         List.for_all (Bloom.mem b) keys))

let test_bloom_fpr_bounded () =
  let keys = List.init 5_000 (fun i -> Printf.sprintf "present%06d" i) in
  let b = Bloom.of_keys keys in
  let false_positives = ref 0 in
  let probes = 20_000 in
  for i = 0 to probes - 1 do
    if Bloom.mem b (Printf.sprintf "absent%06d" i) then incr false_positives
  done;
  let fpr = float_of_int !false_positives /. float_of_int probes in
  let predicted = Bloom.estimated_fpr b ~entries:5_000 in
  Alcotest.(check bool)
    (Printf.sprintf "fpr %.4f ~ predicted %.4f" fpr predicted)
    true
    (fpr < 3.0 *. predicted +. 0.01)

let test_bloom_rejects_bad_args () =
  Alcotest.check_raises "negative entries" (Invalid_argument "Bloom.create") (fun () ->
      ignore (Bloom.create ~expected_entries:(-1) ()))

(* --- deletes / tombstones --- *)

let test_store_delete_basic () =
  let s = Store.create ~config:small_config () in
  Store.put s "k" "v";
  Store.delete s "k";
  check Alcotest.(option string) "deleted" None (Store.get s "k");
  Alcotest.(check bool) "mem false" false (Store.mem s "k");
  Store.put s "k" "v2";
  check Alcotest.(option string) "resurrected" (Some "v2") (Store.get s "k")

let test_store_delete_shadows_runs () =
  let s = Store.create ~config:small_config () in
  for i = 0 to 199 do
    Store.put s (Printf.sprintf "key%04d" i) "v"
  done;
  Alcotest.(check bool) "flushed" true (Store.flushes s > 0);
  Store.delete s "key0003";
  check Alcotest.(option string) "tombstone shadows run value" None (Store.get s "key0003");
  (* Scans must skip the deleted key but still return [limit] live ones. *)
  let keys = List.map fst (Store.scan s ~start:"key0000" ~limit:5) in
  check
    Alcotest.(list string)
    "scan skips tombstone"
    [ "key0000"; "key0001"; "key0002"; "key0004"; "key0005" ]
    keys

let test_store_compaction_drops_tombstones () =
  let config = { Store.memtable_limit = 32; max_runs = 2; seed = 4L } in
  let s = Store.create ~config () in
  for i = 0 to 99 do
    Store.put s (Printf.sprintf "key%04d" i) "v"
  done;
  for i = 0 to 99 do
    Store.delete s (Printf.sprintf "key%04d" i)
  done;
  (* Drive enough churn for a full compaction after the deletes. *)
  for i = 100 to 299 do
    Store.put s (Printf.sprintf "key%04d" i) "v"
  done;
  Alcotest.(check bool) "compacted" true (Store.compactions s > 0);
  check Alcotest.(option string) "still deleted" None (Store.get s "key0050");
  (* After full compactions the dropped tombstones keep length near the
     live count. *)
  Alcotest.(check bool)
    (Printf.sprintf "length %d reasonable" (Store.length s))
    true
    (Store.length s < 400)

let test_store_model_with_deletes =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60 ~name:"store with deletes matches Map model"
       QCheck.(list (pair (int_bound 60) bool))
       (fun ops ->
         let config = { Store.memtable_limit = 16; max_runs = 2; seed = 2L } in
         let s = Store.create ~config () in
         let module M = Stdlib.Map.Make (String) in
         let model =
           List.fold_left
             (fun m (k, is_put) ->
               let key = Printf.sprintf "k%03d" k in
               if is_put then begin
                 Store.put s key "v";
                 M.add key "v" m
               end
               else begin
                 Store.delete s key;
                 M.remove key m
               end)
             M.empty ops
         in
         List.for_all
           (fun k ->
             let key = Printf.sprintf "k%03d" k in
             Store.get s key = M.find_opt key model)
           (List.init 61 Fun.id)))

let test_store_trace_records_accesses () =
  let s = Store.create ~config:small_config () in
  for i = 0 to 499 do
    Store.put s (Printf.sprintf "key%04d" i) "v"
  done;
  let trace = Store.trace_of s (fun () -> ignore (Store.get s "key0250")) in
  Alcotest.(check bool) "GET touches memory" true (Array.length trace > 0);
  let scan_trace =
    Store.trace_of s (fun () -> ignore (Store.scan s ~start:"key0000" ~limit:200))
  in
  Alcotest.(check bool) "SCAN touches more than GET" true
    (Array.length scan_trace > Array.length trace)

let suite =
  [
    Alcotest.test_case "skiplist insert/find" `Quick test_skiplist_insert_find;
    Alcotest.test_case "skiplist overwrite" `Quick test_skiplist_overwrite;
    Alcotest.test_case "skiplist sorted" `Quick test_skiplist_sorted_iteration;
    Alcotest.test_case "skiplist iter_from" `Quick test_skiplist_iter_from;
    Alcotest.test_case "skiplist min/max" `Quick test_skiplist_min_max;
    test_skiplist_model;
    Alcotest.test_case "skiplist tracer" `Quick test_skiplist_tracer;
    Alcotest.test_case "sstable find" `Quick test_sstable_find;
    Alcotest.test_case "sstable rejects unsorted" `Quick test_sstable_rejects_unsorted;
    Alcotest.test_case "sstable iter_from" `Quick test_sstable_iter_from;
    Alcotest.test_case "sstable merge newest" `Quick test_sstable_merge_newest_wins;
    Alcotest.test_case "sstable merge many" `Quick test_sstable_merge_many;
    Alcotest.test_case "store get/put" `Quick test_store_get_put;
    Alcotest.test_case "store overwrite" `Quick test_store_overwrite_across_flushes;
    Alcotest.test_case "store scan" `Quick test_store_scan_merges_sources;
    Alcotest.test_case "store scan memtable" `Quick test_store_scan_sees_fresh_memtable;
    Alcotest.test_case "store compaction" `Quick test_store_compaction_caps_runs;
    test_store_model;
    test_bloom_no_false_negatives;
    Alcotest.test_case "bloom fpr bounded" `Quick test_bloom_fpr_bounded;
    Alcotest.test_case "bloom bad args" `Quick test_bloom_rejects_bad_args;
    Alcotest.test_case "store delete basic" `Quick test_store_delete_basic;
    Alcotest.test_case "store delete shadows" `Quick test_store_delete_shadows_runs;
    Alcotest.test_case "store compaction drops tombstones" `Quick
      test_store_compaction_drops_tombstones;
    test_store_model_with_deletes;
    Alcotest.test_case "store trace" `Quick test_store_trace_records_accesses;
  ]

(* --- Streaming iterator --- *)

let test_iterator_streams_all () =
  let s = Store.create ~config:small_config () in
  for i = 0 to 299 do
    Store.put s (Printf.sprintf "key%04d" i) (string_of_int i)
  done;
  let it = Store.iterate s ~start:"" in
  let count = ref 0 and last = ref "" in
  let rec go () =
    match Store.next it with
    | Some (k, _) ->
        Alcotest.(check bool) "ascending" true (k > !last);
        last := k;
        incr count;
        go ()
    | None -> ()
  in
  go ();
  check Alcotest.int "all keys streamed once" 300 !count

let test_iterator_resolves_shadowing_and_tombstones () =
  let s = Store.create ~config:small_config () in
  for i = 0 to 199 do
    Store.put s (Printf.sprintf "key%04d" i) "old"
  done;
  Store.put s "key0001" "new";
  Store.delete s "key0002";
  let it = Store.iterate s ~start:"key0000" in
  (match Store.next it with
  | Some (k, v) ->
      check Alcotest.string "first key" "key0000" k;
      check Alcotest.string "old value" "old" v
  | None -> Alcotest.fail "expected binding");
  (match Store.next it with
  | Some (k, v) ->
      check Alcotest.string "second key" "key0001" k;
      check Alcotest.string "shadowed by memtable" "new" v
  | None -> Alcotest.fail "expected binding");
  match Store.next it with
  | Some (k, _) -> check Alcotest.string "tombstone skipped" "key0003" k
  | None -> Alcotest.fail "expected binding"

let test_iterator_model =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:50 ~name:"iterator equals Map bindings"
       QCheck.(list (pair (int_bound 60) bool))
       (fun ops ->
         let config = { Store.memtable_limit = 16; max_runs = 2; seed = 2L } in
         let s = Store.create ~config () in
         let module M = Stdlib.Map.Make (String) in
         let model =
           List.fold_left
             (fun m (k, is_put) ->
               let key = Printf.sprintf "k%03d" k in
               if is_put then begin
                 Store.put s key "v";
                 M.add key "v" m
               end
               else begin
                 Store.delete s key;
                 M.remove key m
               end)
             M.empty ops
         in
         let it = Store.iterate s ~start:"" in
         let rec drain acc =
           match Store.next it with Some b -> drain (b :: acc) | None -> List.rev acc
         in
         drain [] = M.bindings model))

let iterator_suite =
  [
    Alcotest.test_case "iterator streams all" `Quick test_iterator_streams_all;
    Alcotest.test_case "iterator shadowing" `Quick test_iterator_resolves_shadowing_and_tombstones;
    test_iterator_model;
  ]

let suite = suite @ iterator_suite

(* --- The in-order append path and the array-free walk --- *)

(* Keys inserted in four orders: ascending (every insert past the
   maximum), descending, as drawn, and each twice with a new value.
   Half the runs insert with a tracer set, so inserts past the maximum
   take the search path there.  Every read agrees with [Map]. *)
let test_skiplist_orders_model =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"skiplist matches Map in every insert order"
       QCheck.(
         triple (int_bound 3) bool
           (small_list (pair (string_of_size (Gen.int_range 0 4)) small_int)))
       (fun (order, traced, bindings) ->
         let module M = Stdlib.Map.Make (String) in
         let by_key = List.sort (fun (a, _) (b, _) -> compare a b) bindings in
         let inserts =
           match order with
           | 0 -> by_key
           | 1 -> List.rev by_key
           | 2 -> bindings
           | _ -> List.concat_map (fun (k, v) -> [ (k, v); (k, v + 1) ]) bindings
         in
         let sl = Skiplist.create () in
         if traced then Skiplist.set_tracer sl (Some ignore);
         let model =
           List.fold_left
             (fun m (k, v) ->
               Skiplist.insert sl k v;
               M.add k v m)
             M.empty inserts
         in
         let from probe =
           let seen = ref [] in
           Skiplist.iter_from sl probe (fun k v ->
               seen := (k, v) :: !seen;
               true);
           List.rev !seen
         in
         let seek probe =
           let c = Skiplist.seek sl probe in
           let rec drain acc =
             match Skiplist.cursor_next c with Some b -> drain (b :: acc) | None -> List.rev acc
           in
           drain []
         in
         let probes = "" :: "zzzzz" :: List.concat_map (fun (k, _) -> [ k; k ^ "a" ]) bindings in
         List.for_all
           (fun p ->
             let expect = List.of_seq (M.to_seq_from p model) in
             Skiplist.find sl p = M.find_opt p model && from p = expect && seek p = expect)
           probes
         && Skiplist.to_sorted_list sl = M.bindings model
         && Skiplist.length sl = M.cardinal model
         && Skiplist.min_binding sl = M.min_binding_opt model
         && Skiplist.max_binding sl = M.max_binding_opt model))

(* A hit allocates its [Some] and nothing else: no per-lookup search
   array. *)
let test_skiplist_find_allocation () =
  let sl = Skiplist.create () in
  for i = 0 to 1023 do
    Skiplist.insert sl (Printf.sprintf "key%06d" i) i
  done;
  let hit = "key000517" and miss = "key000517x" in
  check (Alcotest.float 0.0) "words per hit" 2.0
    (Test_util.minor_words_per_call (fun () -> ignore (Skiplist.find sl hit : int option)));
  check (Alcotest.float 0.0) "words per miss" 0.0
    (Test_util.minor_words_per_call (fun () -> ignore (Skiplist.find sl miss : int option)))

(* A store prefilled in key order, as a live worker's is, then untraced
   SETs that overwrite, fall between keys and go past the maximum, then
   traced GETs and SETs of each kind: every answer and every touched
   address, digested.  The digest was taken from the store whose every
   insert searched from the head. *)
let test_store_trace_pinned () =
  let s = Store.create () in
  for i = 0 to 1023 do
    Store.put s (Printf.sprintf "key%06d" i) (Printf.sprintf "value%06d" i)
  done;
  let rng = Tq_util.Prng.create ~seed:5L in
  let out = Buffer.create 8192 in
  let key () = Printf.sprintf "key%06d" (Tq_util.Prng.int rng 1100) in
  let between () = Printf.sprintf "key%06dm" (Tq_util.Prng.int rng 1100) in
  let next_new = ref 5000 in
  let past_max () =
    incr next_new;
    Printf.sprintf "key%06d" !next_new
  in
  let sets () =
    for _ = 1 to 50 do
      Store.put s (key ()) "x";
      Store.put s (between ()) "y";
      Store.put s (past_max ()) "z"
    done
  in
  let gets () =
    for _ = 1 to 200 do
      Buffer.add_string out (Option.value ~default:"-" (Store.get s (key ())));
      Buffer.add_string out (Option.value ~default:"-" (Store.get s (between ())))
    done
  in
  sets ();
  let trace =
    Store.trace_of s (fun () ->
        gets ();
        sets ();
        gets ())
  in
  Array.iter (fun a -> Buffer.add_string out (Printf.sprintf ",%d" a)) trace;
  check Alcotest.int "trace length" 12444 (Array.length trace);
  check Alcotest.string "trace digest" "58204c26d664f82c230b88203b299826"
    (Digest.to_hex (Digest.string (Buffer.contents out)))

let suite =
  suite
  @ [
      test_skiplist_orders_model;
      Alcotest.test_case "skiplist find allocates only its option" `Quick
        test_skiplist_find_allocation;
      Alcotest.test_case "store trace pinned" `Quick test_store_trace_pinned;
    ]
