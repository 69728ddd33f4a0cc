module Prng = Tq_util.Prng

type t = Jsq_msq | Jsq_random | Random | Power_of_two | Round_robin

type chooser = { policy : t; rng : Prng.t; mutable cursor : int }

let make_chooser policy ~rng = { policy; rng; cursor = 0 }

(* Indices of workers achieving the minimum unfinished-job count,
   restricted to [ok] indices. *)
let min_load_set ?(ok = fun _ -> true) workers =
  let best = ref max_int in
  Array.iteri
    (fun i w -> if ok i then best := min !best (Worker.unfinished w))
    workers;
  let ties = ref [] in
  Array.iteri
    (fun i w -> if ok i && Worker.unfinished w = !best then ties := i :: !ties)
    workers;
  !ties

(* The filtered variant used when the dispatcher's health tracking has
   excluded cores.  Kept separate from the unfiltered path below so that
   fault-free runs consume the PRNG stream exactly as before. *)
let choose_filtered c workers ok =
  let eligible =
    let acc = ref [] in
    Array.iteri (fun i _ -> if ok i then acc := i :: !acc) workers;
    Array.of_list (List.rev !acc)
  in
  let m = Array.length eligible in
  if m = 0 then invalid_arg "Dispatch_policy.choose: no alive workers";
  match c.policy with
  | Random -> eligible.(Prng.int c.rng m)
  | Round_robin ->
      let n = Array.length workers in
      (* First eligible index at or after the cursor, cyclically. *)
      let rec scan i k = if ok (i mod n) || k >= n then i mod n else scan (i + 1) (k + 1) in
      let i = scan c.cursor 0 in
      c.cursor <- (i + 1) mod n;
      i
  | Power_of_two ->
      let a = eligible.(Prng.int c.rng m) in
      let b =
        if m = 1 then a
        else begin
          let j = Prng.int c.rng (m - 1) in
          let cand = eligible.(j) in
          if cand = a then eligible.(m - 1) else cand
        end
      in
      let load_a = Worker.unfinished workers.(a)
      and load_b = Worker.unfinished workers.(b) in
      if load_a < load_b then a
      else if load_b < load_a then b
      else if Prng.bool c.rng then a
      else b
  | Jsq_random -> begin
      match min_load_set ~ok workers with
      | [] -> assert false
      | [ i ] -> i
      | ties ->
          let arr = Array.of_list ties in
          arr.(Prng.int c.rng (Array.length arr))
    end
  | Jsq_msq -> begin
      match min_load_set ~ok workers with
      | [] -> assert false
      | [ i ] -> i
      | ties ->
          let best = ref (List.hd ties) and best_q = ref min_int in
          List.iter
            (fun i ->
              let q = Worker.current_quanta workers.(i) in
              if q > !best_q then begin
                best := i;
                best_q := q
              end)
            (List.rev ties);
          !best
    end

let choose ?alive c workers =
  let n = Array.length workers in
  if n = 0 then invalid_arg "Dispatch_policy.choose: no workers";
  match alive with
  | Some ok -> choose_filtered c workers ok
  | None -> (
      match c.policy with
      | Random -> Prng.int c.rng n
      | Round_robin ->
          let i = c.cursor in
          c.cursor <- (c.cursor + 1) mod n;
          i
      | Power_of_two ->
          let a = Prng.int c.rng n in
          let b = if n = 1 then a else (a + 1 + Prng.int c.rng (n - 1)) mod n in
          let load_a = Worker.unfinished workers.(a)
          and load_b = Worker.unfinished workers.(b) in
          if load_a < load_b then a
          else if load_b < load_a then b
          else if Prng.bool c.rng then a
          else b
      | Jsq_random -> begin
          match min_load_set workers with
          | [] -> assert false
          | [ i ] -> i
          | ties ->
              let arr = Array.of_list ties in
              arr.(Prng.int c.rng (Array.length arr))
        end
      | Jsq_msq -> Worker.jsq_msq workers)
