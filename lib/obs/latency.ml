module Histogram = Tq_stats.Histogram

type recorder = { hist : Histogram.t; max_value : int; mutable owner : int }
type t = { table : (string, recorder) Hashtbl.t; max_value : int }

(* The single-threaded constraint used to be documentation only; with
   the owner check on, every record verifies the calling domain is the
   recorder's owner (the domain that created or last adopted it).  Off
   by default: the hot path then pays one ref load and branch. *)
let owner_check = ref false
let set_owner_check on = owner_check := on
let self () = (Domain.self () :> int)

let create ?(max_ns = 100_000_000_000) () =
  if max_ns <= 0 then invalid_arg "Latency.create: max_ns must be positive";
  { table = Hashtbl.create 16; max_value = max_ns }

let recorder t name =
  match Hashtbl.find_opt t.table name with
  | Some r -> r
  | None ->
      let r =
        {
          hist = Histogram.create ~max_value:t.max_value ();
          max_value = t.max_value;
          owner = self ();
        }
      in
      Hashtbl.add t.table name r;
      r

let adopt r = r.owner <- self ()

let record r ns =
  if !owner_check && self () <> r.owner then
    invalid_arg "Latency.record: recorder used off its owning domain";
  Histogram.record r.hist (Int.max 0 (Int.min ns r.max_value))

let count r = Histogram.count r.hist
let percentile r p = if count r = 0 then 0 else Histogram.percentile r.hist p
let mean r = Histogram.mean r.hist
let max_ns r = Histogram.max_recorded r.hist
let iter_buckets r f = Histogram.iter_buckets r.hist f
let clear r = Histogram.clear r.hist
let clear_all t = Hashtbl.iter (fun _ r -> clear r) t.table

let to_alist t =
  Hashtbl.fold (fun name r acc -> (name, r) :: acc) t.table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Bucket-level aggregation: replaying each source bucket's lower bound
   [count] times lands in the same bucket of the destination histogram
   (identical bucket boundaries), so percentiles of the merge equal the
   percentiles of the pooled samples up to the histograms' native
   resolution.  The sources are read without locks — merge per-lane
   registries after the writers quiesced for an exact cut, or live for
   an eventually-consistent snapshot. *)
let merge ts =
  let max_value =
    List.fold_left (fun acc t -> max acc t.max_value) 1 ts
  in
  let out = create ~max_ns:max_value () in
  List.iter
    (fun t ->
      List.iter
        (fun (name, r) ->
          let dst = recorder out name in
          iter_buckets r (fun ~lo ~hi:_ ~count ->
              Histogram.record_n dst.hist (max 0 (min lo dst.max_value)) ~count))
        (to_alist t))
    ts;
  out

let us ns = float_of_int ns /. 1e3

let dump t =
  let b = Buffer.create 256 in
  List.iter
    (fun (name, r) ->
      Buffer.add_string b
        (Printf.sprintf
           "%-12s %8d samples  mean %8.2fus  p50 %8.2fus  p90 %8.2fus  p99 %8.2fus  \
            p99.9 %8.2fus\n"
           name (count r)
           (if count r = 0 then 0.0 else mean r /. 1e3)
           (us (percentile r 50.0))
           (us (percentile r 90.0))
           (us (percentile r 99.0))
           (us (percentile r 99.9))))
    (to_alist t);
  Buffer.contents b

let json_fields r =
  Printf.sprintf
    "\"count\": %d, \"mean_us\": %.3f, \"p50_us\": %.3f, \"p90_us\": %.3f, \"p99_us\": \
     %.3f, \"p999_us\": %.3f, \"max_us\": %.3f"
    (count r)
    (if count r = 0 then 0.0 else mean r /. 1e3)
    (us (percentile r 50.0))
    (us (percentile r 90.0))
    (us (percentile r 99.0))
    (us (percentile r 99.9))
    (us (max_ns r))

let to_json t =
  let entries =
    List.map
      (fun (name, r) -> Printf.sprintf "    %S: {%s}" name (json_fields r))
      (to_alist t)
  in
  "{\n" ^ String.concat ",\n" entries ^ "\n  }"
