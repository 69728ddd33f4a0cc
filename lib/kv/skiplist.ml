module Prng = Tq_util.Prng

let max_level = 12

type 'a node = {
  key : string;
  mutable value : 'a;
  forward : 'a node option array;
  address : int;
}

type 'a t = {
  head : 'a node;  (** sentinel with empty key, never returned *)
  tails : 'a node array;  (** last node of each level; [head] where none *)
  update : 'a node array;  (** insert's scratch: the predecessor per level *)
  rng : Prng.t;
  mutable level : int;  (** highest level in use, >= 1 *)
  mutable length : int;
  mutable next_address : int;
  mutable tracer : (int -> unit) option;
}

let make_node ~key ~value ~level ~address =
  { key; value; forward = Array.make level None; address }

let create ?(seed = 0x5EEDL) () =
  (* The sentinel's value is never read: every accessor starts from
     [head.forward] and only returns real nodes. *)
  let head = make_node ~key:"" ~value:(Obj.magic 0) ~level:max_level ~address:0 in
  {
    head;
    tails = Array.make max_level head;
    update = Array.make max_level head;
    rng = Prng.create ~seed;
    level = 1;
    length = 0;
    next_address = 64;
    tracer = None;
  }

let length t = t.length
let set_tracer t f = t.tracer <- f

let touch t node = match t.tracer with Some f -> f node.address | None -> ()

let random_level t =
  let rec go level = if level < max_level && Prng.bernoulli t.rng ~p:0.25 then go (level + 1) else level in
  go 1

(* Walk down the towers to the rightmost node < key; with [record], note
   that node per level in [t.update]. *)
let descend t key ~record =
  let node = ref t.head in
  for level = t.level - 1 downto 0 do
    let continue = ref true in
    while !continue do
      match !node.forward.(level) with
      | Some next when next.key < key ->
          touch t next;
          node := next
      | _ -> continue := false
    done;
    if record then t.update.(level) <- !node
  done;
  !node

(* Link a new node after [preds.(l)] on each of its levels.  A key above
   every stored key goes after [t.tails] with no search: the prefill
   inserts its keys in order.  The search would end at the same nodes
   and the tower is drawn the same way, so both paths build the same
   list.  A traced insert still searches, so the trace still shows the
   walk. *)
let link t preds key value =
  let level = random_level t in
  if level > t.level then begin
    for l = t.level to level - 1 do
      preds.(l) <- t.head
    done;
    t.level <- level
  end;
  let node = make_node ~key ~value ~level ~address:t.next_address in
  let some = Some node in
  t.next_address <- t.next_address + 64;
  for l = 0 to level - 1 do
    let pred = preds.(l) in
    node.forward.(l) <- pred.forward.(l);
    pred.forward.(l) <- some;
    if pred == t.tails.(l) then t.tails.(l) <- node
  done;
  t.length <- t.length + 1

let insert t key value =
  if Option.is_none t.tracer && key > t.tails.(0).key then link t t.tails key value
  else
    let pred = descend t key ~record:true in
    match pred.forward.(0) with
    | Some next when next.key = key ->
        touch t next;
        next.value <- value
    | _ -> link t t.update key value

let find t key =
  let pred = descend t key ~record:false in
  match pred.forward.(0) with
  | Some next when next.key = key ->
      touch t next;
      Some next.value
  | _ -> None

let mem t key = Option.is_some (find t key)

let iter_from t key f =
  let pred = descend t key ~record:false in
  let rec go = function
    | None -> ()
    | Some node ->
        touch t node;
        if f node.key node.value then go node.forward.(0)
  in
  go pred.forward.(0)

type 'a cursor = { owner : 'a t; mutable at : 'a node option }

let seek t key =
  let pred = descend t key ~record:false in
  { owner = t; at = pred.forward.(0) }

let cursor_next c =
  match c.at with
  | None -> None
  | Some node ->
      touch c.owner node;
      c.at <- node.forward.(0);
      Some (node.key, node.value)

let to_sorted_list t =
  let acc = ref [] in
  let rec go = function
    | None -> ()
    | Some node ->
        acc := (node.key, node.value) :: !acc;
        go node.forward.(0)
  in
  go t.head.forward.(0);
  List.rev !acc

let min_binding t =
  match t.head.forward.(0) with Some n -> Some (n.key, n.value) | None -> None

let max_binding t =
  let last = t.tails.(0) in
  if last == t.head then None else Some (last.key, last.value)
