(* Shared helpers: the monotonic clock, exact percentiles, a full-precision
   JSON writer and /proc readers. *)

module Json = Tq_util.Json

(* CLOCK_MONOTONIC in nanoseconds: immune to wall-clock steps, and the
   same clock a parent process sees, so spawn-to-ready intervals are
   exact. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9

exception Check_failed of string

(* A failed correctness check aborts the run: no numbers are emitted for
   a run whose outputs were wrong. *)
let check cond fmt =
  Printf.ksprintf (fun msg -> if not cond then raise (Check_failed msg)) fmt

(* Nearest-rank percentile of an ascending array ([p] in [0, 100]). *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let k = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) k))

let sorted_of_list l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

let median l = percentile (sorted_of_list l) 50.0

(* The host's speed drifts by up to a third over minutes (its cores are
   shared).  A fixed kernel, built on the standard library alone so that
   no change to the repository can move it, measures it: [host_slowdown
   ()] is the kernel's time over its nominal 30 ms.  Figures that follow
   the host's CPU speed are divided by it. *)
module Int_map = Map.Make (Int)

let nominal_kernel_s = 0.030

let host_slowdown () =
  let t0 = now_ns () in
  let x = ref 12345 and m = ref Int_map.empty in
  for i = 1 to 60_000 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    m := Int_map.add !x i !m;
    if i land 1 = 0 then m := Int_map.remove (fst (Int_map.min_binding !m)) !m
  done;
  ignore (Sys.opaque_identity !m);
  seconds_since t0 /. nominal_kernel_s

(* [Json.to_string] with every digit of a measured number ([%.17g]; the
   repository's writer prints six significant digits) and with a
   non-finite number, which JSON cannot hold, written as null. *)
let rec json_to_string (v : Json.t) =
  match v with
  | Number f when not (Float.is_finite f) -> "null"
  | Number f when not (Float.is_integer f) -> Printf.sprintf "%.17g" f
  | List l -> "[" ^ String.concat ", " (List.map json_to_string l) ^ "]"
  | Obj kvs ->
      "{"
      ^ String.concat ", "
          (List.map (fun (k, x) -> Json.to_string (String k) ^ ": " ^ json_to_string x) kvs)
      ^ "}"
  | v -> Json.to_string v

let num f : Json.t = Number f
let int i : Json.t = Number (float_of_int i)
let str s : Json.t = String s

(* [path_number json "a.b.c"] — the number at a dotted member path. *)
let path_number json path =
  let rec go v = function
    | [] -> Json.number_opt v
    | k :: rest -> Option.bind (Json.member k v) (fun v -> go v rest)
  in
  match go json (String.split_on_char '.' path) with
  | Some f -> f
  | None -> failwith (Printf.sprintf "server JSON has no number at %s" path)

(* Peak resident set size (VmHWM) of a live process, in MiB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> failwith ("no VmHWM in " ^ path)
      in
      scan ())
