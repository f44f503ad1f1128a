open Net

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let max_message_size = 4096
let header_size = 19

let msg_type = function
  | Message.Open _ -> 1
  | Message.Update _ -> 2
  | Message.Notification _ -> 3
  | Message.Keepalive -> 4

(* --- prefixes ---------------------------------------------------------- *)

let encode_prefix buf p =
  let len = Prefix.length p in
  let nbytes = (len + 7) / 8 in
  Wire.Buf.u8 buf len;
  let addr = Ipv4.to_int (Prefix.network p) in
  for i = 0 to nbytes - 1 do
    Wire.Buf.u8 buf (addr lsr (24 - (8 * i)))
  done

let decode_prefix r =
  let* len = Wire.Reader.u8 r in
  if len > 32 then Error (Wire.Malformed "prefix length")
  else begin
    let nbytes = (len + 7) / 8 in
    let* raw = Wire.Reader.take r nbytes in
    let addr = ref 0 in
    String.iteri (fun i c -> addr := !addr lor (Char.code c lsl (24 - (8 * i)))) raw;
    Ok (Prefix.make (Ipv4.of_int !addr) len)
  end

let rec decode_prefixes r limit acc =
  if Wire.Reader.pos r >= limit then
    if Wire.Reader.pos r = limit then Ok (List.rev acc)
    else Error (Wire.Malformed "prefix block overrun")
  else
    let* p = decode_prefix r in
    decode_prefixes r limit (p :: acc)

(* --- path attributes --------------------------------------------------- *)

let flag_optional = 0x80
let flag_transitive = 0x40
let flag_extended = 0x10

let encode_attribute buf ~flags ~code ~value =
  let len = String.length value in
  let flags = if len > 255 then flags lor flag_extended else flags in
  Wire.Buf.u8 buf flags;
  Wire.Buf.u8 buf code;
  if len > 255 then Wire.Buf.u16 buf len else Wire.Buf.u8 buf len;
  Wire.Buf.bytes buf value

let encode_attributes (a : Attributes.t) =
  let buf = Wire.Buf.create () in
  let value_of f =
    let b = Wire.Buf.create () in
    f b;
    Wire.Buf.contents b
  in
  encode_attribute buf ~flags:flag_transitive ~code:1
    ~value:(value_of (fun b -> Wire.Buf.u8 b (Attributes.origin_preference a.origin)));
  let as_path_value =
    value_of (fun b ->
        List.iter
          (fun seg ->
            let seg_type, asns =
              match seg with
              | Attributes.Set asns -> 1, asns
              | Attributes.Seq asns -> 2, asns
            in
            Wire.Buf.u8 b seg_type;
            Wire.Buf.u8 b (List.length asns);
            List.iter (fun asn -> Wire.Buf.u16 b (Asn.to_int asn)) asns)
          a.as_path)
  in
  encode_attribute buf ~flags:flag_transitive ~code:2 ~value:as_path_value;
  encode_attribute buf ~flags:flag_transitive ~code:3
    ~value:(value_of (fun b -> Wire.Buf.u32 b (Ipv4.to_int a.next_hop)));
  (match a.med with
  | Some med ->
    encode_attribute buf ~flags:flag_optional ~code:4
      ~value:(value_of (fun b -> Wire.Buf.u32 b med))
  | None -> ());
  (match a.local_pref with
  | Some lp ->
    encode_attribute buf ~flags:flag_transitive ~code:5
      ~value:(value_of (fun b -> Wire.Buf.u32 b lp))
  | None -> ());
  (match a.communities with
  | [] -> ()
  | communities ->
    encode_attribute buf ~flags:(flag_optional lor flag_transitive) ~code:8
      ~value:
        (value_of (fun b ->
             List.iter
               (fun (hi, lo) ->
                 Wire.Buf.u16 b hi;
                 Wire.Buf.u16 b lo)
               communities)));
  Wire.Buf.contents buf

type partial_attrs = {
  mutable origin : Attributes.origin option;
  mutable as_path : Attributes.as_path_segment list option;
  mutable next_hop : Ipv4.t option;
  mutable med : int option;
  mutable local_pref : int option;
  mutable communities : (int * int) list;
}

let decode_as_path value =
  let r = Wire.Reader.of_string value in
  let rec segments acc =
    if Wire.Reader.remaining r = 0 then Ok (List.rev acc)
    else
      let* seg_type = Wire.Reader.u8 r in
      let* count = Wire.Reader.u8 r in
      let rec asns n acc =
        if n = 0 then Ok (List.rev acc)
        else
          let* v = Wire.Reader.u16 r in
          asns (n - 1) (Asn.of_int v :: acc)
      in
      let* asns = asns count [] in
      let* seg =
        match seg_type with
        | 1 -> Ok (Attributes.Set asns)
        | 2 -> Ok (Attributes.Seq asns)
        | _ -> Error (Wire.Malformed "AS_PATH segment type")
      in
      segments (seg :: acc)
  in
  segments []

let decode_communities value =
  let r = Wire.Reader.of_string value in
  if String.length value mod 4 <> 0 then Error (Wire.Malformed "COMMUNITIES length")
  else begin
    let rec loop acc =
      if Wire.Reader.remaining r = 0 then Ok (List.rev acc)
      else
        let* hi = Wire.Reader.u16 r in
        let* lo = Wire.Reader.u16 r in
        loop ((hi, lo) :: acc)
    in
    loop []
  end

let u32_value value name =
  if String.length value <> 4 then Error (Wire.Malformed name)
  else
    let* v = Wire.Reader.u32 (Wire.Reader.of_string value) in
    Ok (v land 0x7FFFFFFF)

let decode_attributes r limit =
  let acc =
    {
      origin = None;
      as_path = None;
      next_hop = None;
      med = None;
      local_pref = None;
      communities = [];
    }
  in
  let rec loop () =
    if Wire.Reader.pos r >= limit then
      if Wire.Reader.pos r = limit then Ok ()
      else Error (Wire.Malformed "attribute block overrun")
    else
      let* flags = Wire.Reader.u8 r in
      let* code = Wire.Reader.u8 r in
      let* len =
        if flags land flag_extended <> 0 then Wire.Reader.u16 r else Wire.Reader.u8 r
      in
      let* value = Wire.Reader.take r len in
      let* () =
        match code with
        | 1 ->
          let* origin =
            match value with
            | "\x00" -> Ok Attributes.Igp
            | "\x01" -> Ok Attributes.Egp
            | "\x02" -> Ok Attributes.Incomplete
            | _ -> Error (Wire.Malformed "ORIGIN")
          in
          acc.origin <- Some origin;
          Ok ()
        | 2 ->
          let* path = decode_as_path value in
          acc.as_path <- Some path;
          Ok ()
        | 3 ->
          if String.length value <> 4 then Error (Wire.Malformed "NEXT_HOP")
          else begin
            let* v = Wire.Reader.u32 (Wire.Reader.of_string value) in
            acc.next_hop <- Some (Ipv4.of_int v);
            Ok ()
          end
        | 4 ->
          let* med = u32_value value "MED" in
          acc.med <- Some med;
          Ok ()
        | 5 ->
          let* lp = u32_value value "LOCAL_PREF" in
          acc.local_pref <- Some lp;
          Ok ()
        | 8 ->
          let* communities = decode_communities value in
          acc.communities <- communities;
          Ok ()
        | _ ->
          if flags land flag_optional <> 0 then Ok () (* skip unknown optional *)
          else Error (Wire.Unsupported "well-known attribute")
      in
      loop ()
  in
  let* () = loop () in
  Ok acc

(* --- messages ----------------------------------------------------------- *)

let encode_body = function
  | Message.Open o ->
    let buf = Wire.Buf.create () in
    Wire.Buf.u8 buf o.version;
    Wire.Buf.u16 buf (Asn.to_int o.asn);
    Wire.Buf.u16 buf o.hold_time;
    Wire.Buf.u32 buf (Ipv4.to_int o.router_id);
    Wire.Buf.u8 buf 0 (* no optional parameters *);
    Wire.Buf.contents buf
  | Message.Update u ->
    let buf = Wire.Buf.create () in
    let withdrawn_buf = Wire.Buf.create () in
    List.iter (encode_prefix withdrawn_buf) u.withdrawn;
    let withdrawn = Wire.Buf.contents withdrawn_buf in
    Wire.Buf.u16 buf (String.length withdrawn);
    Wire.Buf.bytes buf withdrawn;
    let attrs =
      match u.attrs with Some a -> encode_attributes a | None -> ""
    in
    Wire.Buf.u16 buf (String.length attrs);
    Wire.Buf.bytes buf attrs;
    List.iter (encode_prefix buf) u.nlri;
    Wire.Buf.contents buf
  | Message.Keepalive -> ""
  | Message.Notification n ->
    let buf = Wire.Buf.create () in
    Wire.Buf.u8 buf n.code;
    Wire.Buf.u8 buf n.subcode;
    Wire.Buf.bytes buf n.data;
    Wire.Buf.contents buf

let encode msg =
  let body = encode_body msg in
  let total = header_size + String.length body in
  if total > max_message_size then
    invalid_arg "Bgp.Codec.encode: message exceeds 4096 bytes";
  let buf = Wire.Buf.create () in
  for _ = 1 to 16 do
    Wire.Buf.u8 buf 0xFF
  done;
  Wire.Buf.u16 buf total;
  Wire.Buf.u8 buf (msg_type msg);
  Wire.Buf.bytes buf body;
  Wire.Buf.contents buf

let decode_open body =
  let r = Wire.Reader.of_string body in
  let* version = Wire.Reader.u8 r in
  let* asn = Wire.Reader.u16 r in
  let* hold_time = Wire.Reader.u16 r in
  let* router_id_raw = Wire.Reader.u32 r in
  let* opt_len = Wire.Reader.u8 r in
  let* _opts = Wire.Reader.take r opt_len in
  Ok
    (Message.Open
       {
         version;
         asn = Asn.of_int asn;
         hold_time;
         router_id = Ipv4.of_int router_id_raw;
       })

let decode_update body =
  let r = Wire.Reader.of_string body in
  let* withdrawn_len = Wire.Reader.u16 r in
  let* withdrawn = decode_prefixes r (Wire.Reader.pos r + withdrawn_len) [] in
  let* attrs_len = Wire.Reader.u16 r in
  let attrs_end = Wire.Reader.pos r + attrs_len in
  if attrs_end > String.length body then Error (Wire.Truncated "path attributes")
  else
    let* partial = decode_attributes r attrs_end in
    let* nlri = decode_prefixes r (String.length body) [] in
    let* attrs =
      match nlri, partial.next_hop with
      | [], _ when attrs_len = 0 -> Ok None
      | _ :: _, None -> Error (Wire.Malformed "UPDATE with NLRI but no NEXT_HOP")
      | _, Some next_hop ->
        let origin = Option.value partial.origin ~default:Attributes.Incomplete in
        let as_path = Option.value partial.as_path ~default:[] in
        Ok
          (Some
             (Attributes.make ~origin ~as_path ?med:partial.med
                ?local_pref:partial.local_pref ~communities:partial.communities
                ~next_hop ()))
      | [], None ->
        (* Attributes present but incomplete and no NLRI: treat as
           withdraw-only, matching lenient real-world parsers. *)
        Ok None
    in
    match withdrawn, nlri, attrs with
    | [], [], None ->
      (* End-of-RIB style empty update; represent as a pure withdraw of
         nothing is invalid in our model, so reject. *)
      Error (Wire.Malformed "empty UPDATE")
    | _ -> Ok (Message.Update { withdrawn; attrs; nlri })

let decode_notification body =
  let r = Wire.Reader.of_string body in
  let* code = Wire.Reader.u8 r in
  let* subcode = Wire.Reader.u8 r in
  let data = Wire.Reader.rest r in
  Ok (Message.Notification { code; subcode; data })

let decode s =
  let r = Wire.Reader.of_string s in
  let* marker = Wire.Reader.take r 16 in
  if String.exists (fun c -> c <> '\xFF') marker then
    Error (Wire.Malformed "header marker")
  else
    let* total = Wire.Reader.u16 r in
    if total < header_size || total > max_message_size then
      Error (Wire.Malformed "message length")
    else if total > String.length s then Error (Wire.Truncated "message body")
    else
      let* ty = Wire.Reader.u8 r in
      let* body = Wire.Reader.take r (total - header_size) in
      let* msg =
        match ty with
        | 1 -> decode_open body
        | 2 -> decode_update body
        | 3 -> decode_notification body
        | 4 -> if body = "" then Ok Message.Keepalive else Error (Wire.Malformed "KEEPALIVE body")
        | _ -> Error (Wire.Unsupported "message type")
      in
      Ok (msg, total)

let decode_exact s =
  let* msg, consumed = decode s in
  if consumed = String.length s then Ok msg
  else Error (Wire.Malformed "trailing bytes")

let decode_all s =
  let rec loop offset acc =
    if offset = String.length s then Ok (List.rev acc)
    else
      let* msg, consumed = decode (String.sub s offset (String.length s - offset)) in
      loop (offset + consumed) (msg :: acc)
  in
  loop 0 []
