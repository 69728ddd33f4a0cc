(* Named monotonic counters, gauges and power-of-two-bucket
   distributions, grouped in a registry.

   Registration (a hashtable lookup) happens once, at subsystem create
   time; the handle a subsystem holds is a bare mutable record, so a
   hot-path bump is a single store.  Counters are cheap enough to stay
   always-on; only span recording is gated. *)

type counter = { c_name : string; mutable count : int }
type gauge = { g_name : string; mutable value : float }

type dist = {
  d_name : string;
  buckets : int array;  (** bucket [i] counts observations in [2^i-1 .. 2^i) *)
  mutable n : int;
  mutable sum : int;
  mutable max_obs : int;
}

type metric = Counter of counter | Gauge of gauge | Dist of dist

type t = { tbl : (string, metric) Hashtbl.t }

let create () = { tbl = Hashtbl.create 32 }

let counter t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Counter c) -> c
  | Some _ -> invalid_arg ("Counters.counter: " ^ name ^ " is not a counter")
  | None ->
      let c = { c_name = name; count = 0 } in
      Hashtbl.add t.tbl name (Counter c);
      c

let gauge t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Gauge g) -> g
  | Some _ -> invalid_arg ("Counters.gauge: " ^ name ^ " is not a gauge")
  | None ->
      let g = { g_name = name; value = 0.0 } in
      Hashtbl.add t.tbl name (Gauge g);
      g

let dist t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Dist d) -> d
  | Some _ -> invalid_arg ("Counters.dist: " ^ name ^ " is not a dist")
  | None ->
      let d = { d_name = name; buckets = Array.make 63 0; n = 0; sum = 0; max_obs = 0 } in
      Hashtbl.add t.tbl name (Dist d);
      d

let incr c = c.count <- c.count + 1
let add c n = c.count <- c.count + n
let count c = c.count
let set g v = g.value <- v
let value g = g.value

let bucket_of v =
  let rec go i v = if v = 0 then i else go (i + 1) (v lsr 1) in
  go 0 (Int.max 0 v)

let observe d v =
  let v = Int.max 0 v in
  let b = Int.min 62 (bucket_of v) in
  d.buckets.(b) <- d.buckets.(b) + 1;
  d.n <- d.n + 1;
  d.sum <- d.sum + v;
  d.max_obs <- Int.max d.max_obs v

let dist_count d = d.n
let dist_mean d = if d.n = 0 then nan else float_of_int d.sum /. float_of_int d.n
let dist_max d = d.max_obs
let dist_sum d = d.sum
let dist_buckets d = Array.copy d.buckets

(* Lookup by name, for tests and generic dumps. *)
let find t name = Hashtbl.find_opt t.tbl name

(* Missing (or non-counter) reads as 0, so assertions and dashboards
   need no option plumbing. *)
let find_count t name =
  match find t name with Some (Counter c) -> c.count | _ -> 0

let to_alist t =
  Hashtbl.fold (fun name m acc -> (name, m) :: acc) t.tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* Multi-domain aggregation.  Registries are single-writer (see the
   .mli ownership rule); a snapshot reads other domains' bare mutable
   cells without synchronization, which is safe in OCaml 5 — ints are
   word-sized, no tearing — but only eventually consistent: a merged
   value can lag the owner by a few bumps. *)
let merged ts =
  let out = create () in
  List.iter
    (fun src ->
      List.iter
        (fun (name, m) ->
          match m with
          | Counter c -> add (counter out name) c.count
          | Gauge g ->
              let og = gauge out name in
              og.value <- og.value +. g.value
          | Dist d ->
              let od = dist out name in
              Array.iteri
                (fun i n -> od.buckets.(i) <- od.buckets.(i) + n)
                d.buckets;
              od.n <- od.n + d.n;
              od.sum <- od.sum + d.sum;
              od.max_obs <- max od.max_obs d.max_obs)
        (to_alist src))
    ts;
  out

let dump t =
  let buf = Buffer.create 256 in
  List.iter
    (fun (name, m) ->
      match m with
      | Counter c -> Buffer.add_string buf (Printf.sprintf "%-36s %d\n" name c.count)
      | Gauge g -> Buffer.add_string buf (Printf.sprintf "%-36s %g\n" name g.value)
      | Dist d ->
          Buffer.add_string buf
            (Printf.sprintf "%-36s n=%d mean=%.1f max=%d\n" name d.n (dist_mean d)
               d.max_obs);
          Array.iteri
            (fun i n ->
              if n > 0 then
                Buffer.add_string buf
                  (Printf.sprintf "  %-34s %d\n"
                     (Printf.sprintf "[%d..%d)"
                        (if i = 0 then 0 else 1 lsl (i - 1))
                        (1 lsl i))
                     n))
            d.buckets)
    (to_alist t);
  Buffer.contents buf
