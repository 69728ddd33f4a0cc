(* Length-prefixed binary framing.  All integers big-endian.  Frame
   payload layouts:

     request:  req_id:u64  tag:u8  body
       tag 0 Echo:    spin_ns:u32  payload...
       tag 1 Kv_get:  key...
       tag 2 Kv_set:  klen:u16  key  value...
       tag 3 Tpcc:    kind:u8
       tag 4 Stats:   view:u8 (0 json, 1 text, 3/4 breakdown,
                               5 control, 6/7 outliers; 2 is retired)
     response: req_id:u64  status:u8  body
       status 0 Ok, 1 Shed, 2 Error (body = message) *)

type stats_view =
  | Stats_json
  | Stats_text
  | Stats_breakdown
  | Stats_breakdown_text
  | Stats_control
  | Stats_outliers of { limit : int }
  | Stats_outliers_text of { limit : int }

type request =
  | Echo of { spin_ns : int; payload : string }
  | Kv_get of { key : string }
  | Kv_set of { key : string; value : string }
  | Tpcc of { kind : Tq_tpcc.Transactions.kind }
  | Stats of { view : stats_view }

type status = Ok | Shed | Error of string
type response = { req_id : int; status : status; body : string }

(* A bound on what a peer may make the decoder buffer; every reply body
   (a metrics snapshot, a dossier table) is far below it. *)
let max_frame_bytes = 1 lsl 24
let class_count = 5

let class_of_request = function
  | Echo _ -> 0
  | Kv_get _ -> 1
  | Kv_set _ -> 2
  | Tpcc _ -> 3
  | Stats _ -> 4

let class_name = function
  | 0 -> "echo"
  | 1 -> "kv_get"
  | 2 -> "kv_set"
  | 3 -> "tpcc"
  | 4 -> "stats"
  | i -> invalid_arg (Printf.sprintf "Protocol.class_name: %d" i)

let steering_key = function
  | Kv_get { key } | Kv_set { key; _ } -> Some key
  | Echo _ | Tpcc _ | Stats _ -> None

let view_tag = function
  | Stats_json -> 0
  | Stats_text -> 1
  | Stats_breakdown -> 3
  | Stats_breakdown_text -> 4
  | Stats_control -> 5
  | Stats_outliers _ -> 6
  | Stats_outliers_text _ -> 7

let view_of_tag = function
  | 0 -> Some Stats_json
  | 1 -> Some Stats_text
  | 3 -> Some Stats_breakdown
  | 4 -> Some Stats_breakdown_text
  | 5 -> Some Stats_control
  | 6 -> Some (Stats_outliers { limit = 0 })
  | 7 -> Some (Stats_outliers_text { limit = 0 })
  | _ -> None

let kind_tag : Tq_tpcc.Transactions.kind -> int = function
  | Payment -> 0
  | Order_status -> 1
  | New_order -> 2
  | Delivery -> 3
  | Stock_level -> 4

let kind_of_tag : int -> Tq_tpcc.Transactions.kind option = function
  | 0 -> Some Payment
  | 1 -> Some Order_status
  | 2 -> Some New_order
  | 3 -> Some Delivery
  | 4 -> Some Stock_level
  | _ -> None

(* Appends [payload builder] output prefixed with its length. *)
let with_frame b build =
  let body = Buffer.create 64 in
  build body;
  let len = Buffer.length body in
  if len > max_frame_bytes then invalid_arg "Protocol: frame exceeds max_frame_bytes";
  Buffer.add_int32_be b (Int32.of_int len);
  Buffer.add_buffer b body

let encode_request b ~req_id r =
  with_frame b (fun body ->
      Buffer.add_int64_be body (Int64.of_int req_id);
      match r with
      | Echo { spin_ns; payload } ->
          Buffer.add_uint8 body 0;
          Buffer.add_int32_be body (Int32.of_int spin_ns);
          Buffer.add_string body payload
      | Kv_get { key } ->
          Buffer.add_uint8 body 1;
          Buffer.add_string body key
      | Kv_set { key; value } ->
          Buffer.add_uint8 body 2;
          Buffer.add_uint16_be body (String.length key);
          Buffer.add_string body key;
          Buffer.add_string body value
      | Tpcc { kind } ->
          Buffer.add_uint8 body 3;
          Buffer.add_uint8 body (kind_tag kind)
      | Stats { view } -> (
          Buffer.add_uint8 body 4;
          Buffer.add_uint8 body (view_tag view);
          (* outlier views carry a top-N limit (0 = all retained) *)
          match view with
          | Stats_outliers { limit } | Stats_outliers_text { limit } ->
              Buffer.add_uint16_be body limit
          | Stats_json | Stats_text | Stats_breakdown
          | Stats_breakdown_text | Stats_control -> ()))

let status_tag = function Ok -> 0 | Shed -> 1 | Error _ -> 2

let encode_response b r =
  with_frame b (fun body ->
      Buffer.add_int64_be body (Int64.of_int r.req_id);
      Buffer.add_uint8 body (status_tag r.status);
      match r.status with
      | Error msg -> Buffer.add_string body msg
      | Ok | Shed -> Buffer.add_string body r.body)

let response_frame r =
  let b = Buffer.create (String.length r.body + 16) in
  encode_response b r;
  Buffer.to_bytes b

(* Zero-copy response path: the frame layout is simple enough to size
   exactly and write in place, so workers can encode straight into a
   pooled buffer instead of going through [Buffer] (one allocation for
   the Buffer's backing store plus one copy out per response). *)

let response_body r = match r.status with Error msg -> msg | Ok | Shed -> r.body

let response_frame_len r =
  (* length prefix + req_id:u64 + status:u8 + body *)
  4 + 8 + 1 + String.length (response_body r)

let encode_response_into buf ~off r =
  let body = response_body r in
  let blen = String.length body in
  let flen = 9 + blen in
  if flen > max_frame_bytes then invalid_arg "Protocol: frame exceeds max_frame_bytes";
  if off < 0 || off + 4 + flen > Bytes.length buf then
    invalid_arg "Protocol.encode_response_into: buffer too small";
  Bytes.set_int32_be buf off (Int32.of_int flen);
  Bytes.set_int64_be buf (off + 4) (Int64.of_int r.req_id);
  Bytes.set_uint8 buf (off + 12) (status_tag r.status);
  Bytes.blit_string body 0 buf (off + 13) blen;
  4 + flen

module Outbuf = struct
  (* The mirror image of [Reassembly]: a flat byte region with
     produce-at-back ([len]) and consume-from-front ([head]), so a
     partial [write] just advances the cursor — no [Buffer.contents]
     copy per flush and no reshuffling per short write. *)
  type t = { mutable buf : bytes; mutable head : int; mutable len : int }

  let create ?(capacity = 4096) () =
    if capacity <= 0 then invalid_arg "Outbuf.create: capacity must be positive";
    { buf = Bytes.create capacity; head = 0; len = 0 }

  let pending_bytes t = t.len - t.head
  let is_empty t = t.head = t.len

  let compact t =
    if t.head > 0 && (t.head = t.len || t.head > Bytes.length t.buf / 2) then begin
      Bytes.blit t.buf t.head t.buf 0 (t.len - t.head);
      t.len <- t.len - t.head;
      t.head <- 0
    end

  let reserve t n =
    compact t;
    if t.len + n > Bytes.length t.buf then begin
      let cap = ref (Bytes.length t.buf) in
      while t.len + n > !cap do
        cap := !cap * 2
      done;
      let bigger = Bytes.create !cap in
      Bytes.blit t.buf 0 bigger 0 t.len;
      t.buf <- bigger
    end

  let add_bytes t src ~off ~len =
    if len < 0 || off < 0 || off + len > Bytes.length src then
      invalid_arg "Outbuf.add_bytes: bad slice";
    reserve t len;
    Bytes.blit src off t.buf t.len len;
    t.len <- t.len + len

  let add_buffer t src =
    let len = Buffer.length src in
    reserve t len;
    Buffer.blit src 0 t.buf t.len len;
    t.len <- t.len + len

  let peek t = (t.buf, t.head, pending_bytes t)

  let consume t n =
    if n < 0 || n > pending_bytes t then invalid_arg "Outbuf.consume: bad count";
    t.head <- t.head + n;
    compact t
end

let ( let* ) = Result.bind

let need payload n =
  if Bytes.length payload >= n then Result.Ok () else Result.Error "truncated frame"

let decode_request payload =
  let* () = need payload 9 in
  let req_id = Int64.to_int (Bytes.get_int64_be payload 0) in
  let tag = Bytes.get_uint8 payload 8 in
  let rest off = Bytes.sub_string payload off (Bytes.length payload - off) in
  match tag with
  | 0 ->
      let* () = need payload 13 in
      let spin_ns = Int32.to_int (Bytes.get_int32_be payload 9) in
      if spin_ns < 0 then Result.Error "negative spin"
      else Result.Ok (req_id, Echo { spin_ns; payload = rest 13 })
  | 1 -> Result.Ok (req_id, Kv_get { key = rest 9 })
  | 2 ->
      let* () = need payload 11 in
      let klen = Bytes.get_uint16_be payload 9 in
      let* () = need payload (11 + klen) in
      let key = Bytes.sub_string payload 11 klen in
      Result.Ok (req_id, Kv_set { key; value = rest (11 + klen) })
  | 3 -> (
      let* () = need payload 10 in
      match kind_of_tag (Bytes.get_uint8 payload 9) with
      | Some kind -> Result.Ok (req_id, Tpcc { kind })
      | None -> Result.Error "unknown tpcc kind")
  | 4 -> (
      let* () = need payload 10 in
      match view_of_tag (Bytes.get_uint8 payload 9) with
      | Some view ->
          let view =
            (* the optional u16 limit after the view tag, 0 when absent *)
            if Bytes.length payload < 12 then view
            else
              let limit = Bytes.get_uint16_be payload 10 in
              match view with
              | Stats_outliers _ -> Stats_outliers { limit }
              | Stats_outliers_text _ -> Stats_outliers_text { limit }
              | v -> v
          in
          Result.Ok (req_id, Stats { view })
      | None -> Result.Error "unknown stats view")
  | t -> Result.Error (Printf.sprintf "unknown request tag %d" t)

let decode_response payload =
  let* () = need payload 9 in
  let req_id = Int64.to_int (Bytes.get_int64_be payload 0) in
  let body = Bytes.sub_string payload 9 (Bytes.length payload - 9) in
  match Bytes.get_uint8 payload 8 with
  | 0 -> Result.Ok { req_id; status = Ok; body }
  | 1 -> Result.Ok { req_id; status = Shed; body }
  | 2 -> Result.Ok { req_id; status = Error body; body = "" }
  | t -> Result.Error (Printf.sprintf "unknown status tag %d" t)

module Reassembly = struct
  (* A flat byte buffer with consume-from-front: [head] is the parse
     cursor, [len] the fill level; compaction slides the live region
     back to offset 0 when the dead prefix dominates. *)
  type t = { mutable buf : bytes; mutable head : int; mutable len : int }

  let create () = { buf = Bytes.create 4096; head = 0; len = 0 }
  let pending_bytes t = t.len - t.head

  let compact t =
    if t.head > 0 && (t.head = t.len || t.head > Bytes.length t.buf / 2) then begin
      Bytes.blit t.buf t.head t.buf 0 (t.len - t.head);
      t.len <- t.len - t.head;
      t.head <- 0
    end

  let add t chunk n =
    compact t;
    if t.len + n > Bytes.length t.buf then begin
      let cap = ref (Bytes.length t.buf) in
      while t.len + n > !cap do
        cap := !cap * 2
      done;
      let bigger = Bytes.create !cap in
      Bytes.blit t.buf 0 bigger 0 t.len;
      t.buf <- bigger
    end;
    Bytes.blit chunk 0 t.buf t.len n;
    t.len <- t.len + n

  let next t =
    if pending_bytes t < 4 then Result.Ok None
    else
      let flen = Int32.to_int (Bytes.get_int32_be t.buf t.head) in
      if flen < 0 || flen > max_frame_bytes then
        Result.Error (Printf.sprintf "bad frame length %d" flen)
      else if pending_bytes t < 4 + flen then Result.Ok None
      else begin
        let payload = Bytes.sub t.buf (t.head + 4) flen in
        t.head <- t.head + 4 + flen;
        compact t;
        Result.Ok (Some payload)
      end
end
