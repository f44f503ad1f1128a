open Net

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let version = 0x01

(* ofp_type values *)
let t_hello = 0
let t_echo_request = 2
let t_echo_reply = 3
let t_features_request = 5
let t_features_reply = 6
let t_packet_in = 10
let t_packet_out = 13
let t_flow_mod = 14
let t_barrier_request = 18
let t_barrier_reply = 19

(* Special output ports. *)
let p_flood = 0xFFFB
let p_controller = 0xFFFD

(* ofp_flow_wildcards bits *)
let w_in_port = 1 lsl 0
let w_dl_vlan = 1 lsl 1
let w_dl_src = 1 lsl 2
let w_dl_dst = 1 lsl 3
let w_dl_type = 1 lsl 4
let w_nw_proto = 1 lsl 5
let w_tp_src = 1 lsl 6
let w_tp_dst = 1 lsl 7
let w_nw_src_shift = 8
let w_nw_dst_shift = 14
let w_dl_vlan_pcp = 1 lsl 20
let w_nw_tos = 1 lsl 21

let write_mac buf mac = Array.iter (Wire.Buf.u8 buf) (Mac.to_bytes mac)

let read_mac r =
  let* s = Wire.Reader.take r 6 in
  Ok (Mac.of_bytes (Array.init 6 (fun i -> Char.code s.[i])))

(* --- ofp_match (40 bytes) --------------------------------------------- *)

let encode_match buf (m : Ofmatch.t) =
  let wild field bit = match field with Some _ -> 0 | None -> bit in
  let ip_wild field shift =
    let missing_bits =
      match field with
      | Some p -> 32 - Net.Prefix.length p
      | None -> 63 (* "greater than 32 wildcards the whole field" *)
    in
    missing_bits lsl shift
  in
  let wildcards =
    wild m.in_port w_in_port lor w_dl_vlan lor wild m.dl_src w_dl_src
    lor wild m.dl_dst w_dl_dst lor wild m.dl_type w_dl_type
    lor wild m.nw_proto w_nw_proto lor wild m.tp_src w_tp_src
    lor wild m.tp_dst w_tp_dst
    lor ip_wild m.nw_src w_nw_src_shift
    lor ip_wild m.nw_dst w_nw_dst_shift
    lor w_dl_vlan_pcp lor w_nw_tos
  in
  Wire.Buf.u32 buf wildcards;
  Wire.Buf.u16 buf (Option.value m.in_port ~default:0);
  write_mac buf (Option.value m.dl_src ~default:Mac.zero);
  write_mac buf (Option.value m.dl_dst ~default:Mac.zero);
  Wire.Buf.u16 buf 0xFFFF (* dl_vlan: OFP_VLAN_NONE *);
  Wire.Buf.u8 buf 0 (* dl_vlan_pcp *);
  Wire.Buf.u8 buf 0 (* pad *);
  Wire.Buf.u16 buf (Option.value m.dl_type ~default:0);
  Wire.Buf.u8 buf 0 (* nw_tos *);
  Wire.Buf.u8 buf (Option.value m.nw_proto ~default:0);
  Wire.Buf.u16 buf 0 (* pad *);
  Wire.Buf.u32 buf
    (Ipv4.to_int (match m.nw_src with Some p -> Prefix.network p | None -> Ipv4.any));
  Wire.Buf.u32 buf
    (Ipv4.to_int (match m.nw_dst with Some p -> Prefix.network p | None -> Ipv4.any));
  Wire.Buf.u16 buf (Option.value m.tp_src ~default:0);
  Wire.Buf.u16 buf (Option.value m.tp_dst ~default:0)

let decode_match r =
  let* wildcards_raw = Wire.Reader.u32 r in
  let wildcards = wildcards_raw land 0x3FFFFF in
  let* in_port = Wire.Reader.u16 r in
  let* dl_src = read_mac r in
  let* dl_dst = read_mac r in
  let* _dl_vlan = Wire.Reader.u16 r in
  let* _dl_vlan_pcp = Wire.Reader.u8 r in
  let* _pad = Wire.Reader.u8 r in
  let* dl_type = Wire.Reader.u16 r in
  let* _nw_tos = Wire.Reader.u8 r in
  let* nw_proto = Wire.Reader.u8 r in
  let* _pad2 = Wire.Reader.u16 r in
  let* nw_src = Wire.Reader.u32 r in
  let* nw_dst = Wire.Reader.u32 r in
  let* tp_src = Wire.Reader.u16 r in
  let* tp_dst = Wire.Reader.u16 r in
  let field bit v = if wildcards land bit <> 0 then None else Some v in
  let ip_field shift raw =
    (* 0..32 missing bits map to a prefix (32 -> the semantically
       equivalent /0); anything larger is the fully-wildcarded field our
       encoder writes for an absent match. *)
    let missing = (wildcards lsr shift) land 0x3F in
    if missing > 32 then None
    else Some (Prefix.make (Ipv4.of_int raw) (32 - missing))
  in
  Ok
    {
      Ofmatch.in_port = field w_in_port in_port;
      dl_src = field w_dl_src dl_src;
      dl_dst = field w_dl_dst dl_dst;
      dl_type = field w_dl_type dl_type;
      nw_src = ip_field w_nw_src_shift nw_src;
      nw_dst = ip_field w_nw_dst_shift nw_dst;
      nw_proto = field w_nw_proto nw_proto;
      tp_src = field w_tp_src tp_src;
      tp_dst = field w_tp_dst tp_dst;
    }

(* --- actions ------------------------------------------------------------ *)

let encode_action buf = function
  | Action.Output port ->
    Wire.Buf.u16 buf 0;
    Wire.Buf.u16 buf 8;
    Wire.Buf.u16 buf port;
    Wire.Buf.u16 buf 0xFFFF (* max_len *)
  | Action.Flood ->
    Wire.Buf.u16 buf 0;
    Wire.Buf.u16 buf 8;
    Wire.Buf.u16 buf p_flood;
    Wire.Buf.u16 buf 0xFFFF
  | Action.To_controller ->
    Wire.Buf.u16 buf 0;
    Wire.Buf.u16 buf 8;
    Wire.Buf.u16 buf p_controller;
    Wire.Buf.u16 buf 0xFFFF
  | Action.Set_dl_src mac ->
    Wire.Buf.u16 buf 4;
    Wire.Buf.u16 buf 16;
    write_mac buf mac;
    for _ = 1 to 6 do Wire.Buf.u8 buf 0 done
  | Action.Set_dl_dst mac ->
    Wire.Buf.u16 buf 5;
    Wire.Buf.u16 buf 16;
    write_mac buf mac;
    for _ = 1 to 6 do Wire.Buf.u8 buf 0 done
  | Action.Set_nw_src ip ->
    Wire.Buf.u16 buf 6;
    Wire.Buf.u16 buf 8;
    Wire.Buf.u32 buf (Ipv4.to_int ip)
  | Action.Set_nw_dst ip ->
    Wire.Buf.u16 buf 7;
    Wire.Buf.u16 buf 8;
    Wire.Buf.u32 buf (Ipv4.to_int ip)

let encode_actions actions =
  let buf = Wire.Buf.create () in
  List.iter (encode_action buf) actions;
  Wire.Buf.contents buf

let decode_action r =
  let* ty = Wire.Reader.u16 r in
  let* len = Wire.Reader.u16 r in
  match ty with
  | 0 ->
    if len <> 8 then Error (Wire.Malformed "output action length")
    else
      let* port = Wire.Reader.u16 r in
      let* _max_len = Wire.Reader.u16 r in
      if port = p_flood then Ok Action.Flood
      else if port = p_controller then Ok Action.To_controller
      else Ok (Action.Output port)
  | 4 | 5 ->
    if len <> 16 then Error (Wire.Malformed "set_dl action length")
    else
      let* mac = read_mac r in
      let* _pad = Wire.Reader.take r 6 in
      Ok (if ty = 4 then Action.Set_dl_src mac else Action.Set_dl_dst mac)
  | 6 | 7 ->
    if len <> 8 then Error (Wire.Malformed "set_nw action length")
    else
      let* raw = Wire.Reader.u32 r in
      let ip = Ipv4.of_int raw in
      Ok (if ty = 6 then Action.Set_nw_src ip else Action.Set_nw_dst ip)
  | _ -> Error (Wire.Unsupported "action type")

let decode_actions bytes =
  let r = Wire.Reader.of_string bytes in
  let rec loop acc =
    if Wire.Reader.remaining r = 0 then Ok (List.rev acc)
    else
      let* a = decode_action r in
      loop (a :: acc)
  in
  loop []

(* --- message bodies ------------------------------------------------------ *)

let command_to_int = function
  | Flow_table.Add -> 0
  | Flow_table.Modify -> 1
  | Flow_table.Modify_strict -> 2
  | Flow_table.Delete -> 3
  | Flow_table.Delete_strict -> 4

let command_of_int = function
  | 0 -> Ok Flow_table.Add
  | 1 -> Ok Flow_table.Modify
  | 2 -> Ok Flow_table.Modify_strict
  | 3 -> Ok Flow_table.Delete
  | 4 -> Ok Flow_table.Delete_strict
  | _ -> Error (Wire.Malformed "flow_mod command")

let port_desc_size = 48

(* The two 64-bit fields (datapath id, cookie) are the codec's only
   int64s: an OCaml int has 63 bits. *)
let write_u64 buf v =
  Wire.Buf.u32 buf (Int64.to_int (Int64.shift_right_logical v 32));
  Wire.Buf.u32 buf (Int64.to_int v)

let int64_of_halves hi lo =
  Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo)

let encode_body msg =
  let buf = Wire.Buf.create () in
  (match msg with
  | Message.Hello | Message.Echo_request _ | Message.Echo_reply _
  | Message.Features_request | Message.Barrier_request _ | Message.Barrier_reply _ ->
    ()
  | Message.Features_reply { datapath_id; n_ports } ->
    write_u64 buf datapath_id;
    Wire.Buf.u32 buf 256 (* n_buffers *);
    Wire.Buf.u8 buf 1 (* n_tables *);
    Wire.Buf.u8 buf 0;
    Wire.Buf.u16 buf 0 (* pad *);
    Wire.Buf.u32 buf 0 (* capabilities *);
    Wire.Buf.u32 buf 0xFF (* supported actions *);
    for port = 0 to n_ports - 1 do
      Wire.Buf.u16 buf port;
      write_mac buf (Mac.of_int (0x020000000000 + port));
      let name = Printf.sprintf "port%d" port in
      Wire.Buf.bytes buf name;
      Wire.Buf.bytes buf (String.make (16 - String.length name) '\x00');
      Wire.Buf.u32 buf 0 (* config *);
      Wire.Buf.u32 buf 0 (* state *);
      Wire.Buf.u32 buf 0;
      Wire.Buf.u32 buf 0;
      Wire.Buf.u32 buf 0;
      Wire.Buf.u32 buf 0
    done
  | Message.Packet_in { in_port; frame } ->
    let data = Wire.encode_frame frame in
    Wire.Buf.u32 buf 0xFFFF_FFFF (* buffer_id: unbuffered *);
    Wire.Buf.u16 buf (String.length data);
    Wire.Buf.u16 buf in_port;
    Wire.Buf.u8 buf 0 (* reason: no match *);
    Wire.Buf.u8 buf 0 (* pad *);
    Wire.Buf.bytes buf data
  | Message.Packet_out { actions; frame } ->
    let acts = encode_actions actions in
    Wire.Buf.u32 buf 0xFFFF_FFFF (* buffer_id: data attached *);
    Wire.Buf.u16 buf 0xFFFF (* in_port: none *);
    Wire.Buf.u16 buf (String.length acts);
    Wire.Buf.bytes buf acts;
    Wire.Buf.bytes buf (Wire.encode_frame frame)
  | Message.Flow_mod fm ->
    encode_match buf fm.Flow_table.fm_match;
    write_u64 buf fm.Flow_table.fm_cookie;
    Wire.Buf.u16 buf (command_to_int fm.Flow_table.command);
    Wire.Buf.u16 buf 0 (* idle_timeout *);
    Wire.Buf.u16 buf 0 (* hard_timeout *);
    Wire.Buf.u16 buf fm.Flow_table.fm_priority;
    Wire.Buf.u32 buf 0xFFFF_FFFF (* buffer_id *);
    Wire.Buf.u16 buf 0xFFFF (* out_port: none *);
    Wire.Buf.u16 buf 0 (* flags *);
    Wire.Buf.bytes buf (encode_actions fm.Flow_table.fm_actions));
  Wire.Buf.contents buf

let type_and_xid = function
  | Message.Hello -> (t_hello, 0)
  | Message.Echo_request xid -> (t_echo_request, xid)
  | Message.Echo_reply xid -> (t_echo_reply, xid)
  | Message.Features_request -> (t_features_request, 0)
  | Message.Features_reply _ -> (t_features_reply, 0)
  | Message.Packet_in _ -> (t_packet_in, 0)
  | Message.Packet_out _ -> (t_packet_out, 0)
  | Message.Flow_mod _ -> (t_flow_mod, 0)
  | Message.Barrier_request xid -> (t_barrier_request, xid)
  | Message.Barrier_reply xid -> (t_barrier_reply, xid)

let encode msg =
  let body = encode_body msg in
  let ty, xid = type_and_xid msg in
  let buf = Wire.Buf.create () in
  Wire.Buf.u8 buf version;
  Wire.Buf.u8 buf ty;
  Wire.Buf.u16 buf (8 + String.length body);
  Wire.Buf.u32 buf xid;
  Wire.Buf.bytes buf body;
  Wire.Buf.contents buf

let decode_features_reply body =
  let r = Wire.Reader.of_string body in
  let* hi = Wire.Reader.u32 r in
  let* lo = Wire.Reader.u32 r in
  let* _n_buffers = Wire.Reader.u32 r in
  let* _n_tables = Wire.Reader.u8 r in
  let* _pad1 = Wire.Reader.u8 r in
  let* _pad2 = Wire.Reader.u16 r in
  let* _capabilities = Wire.Reader.u32 r in
  let* _actions = Wire.Reader.u32 r in
  let remaining = Wire.Reader.remaining r in
  if remaining mod port_desc_size <> 0 then Error (Wire.Malformed "port descriptors")
  else
    Ok
      (Message.Features_reply
         { datapath_id = int64_of_halves hi lo; n_ports = remaining / port_desc_size })

let decode_packet_in body =
  let r = Wire.Reader.of_string body in
  let* _buffer_id = Wire.Reader.u32 r in
  let* total_len = Wire.Reader.u16 r in
  let* in_port = Wire.Reader.u16 r in
  let* _reason = Wire.Reader.u8 r in
  let* _pad = Wire.Reader.u8 r in
  let* data = Wire.Reader.take r total_len in
  let* frame = Wire.decode_frame data in
  Ok (Message.Packet_in { in_port; frame })

let decode_packet_out body =
  let r = Wire.Reader.of_string body in
  let* _buffer_id = Wire.Reader.u32 r in
  let* _in_port = Wire.Reader.u16 r in
  let* actions_len = Wire.Reader.u16 r in
  let* acts = Wire.Reader.take r actions_len in
  let* actions = decode_actions acts in
  let* frame = Wire.decode_frame (Wire.Reader.rest r) in
  Ok (Message.Packet_out { actions; frame })

let decode_flow_mod body =
  let r = Wire.Reader.of_string body in
  let* fm_match = decode_match r in
  let* chi = Wire.Reader.u32 r in
  let* clo = Wire.Reader.u32 r in
  let* command_raw = Wire.Reader.u16 r in
  let* command = command_of_int command_raw in
  let* _idle = Wire.Reader.u16 r in
  let* _hard = Wire.Reader.u16 r in
  let* fm_priority = Wire.Reader.u16 r in
  let* _buffer_id = Wire.Reader.u32 r in
  let* _out_port = Wire.Reader.u16 r in
  let* _flags = Wire.Reader.u16 r in
  let* fm_actions = decode_actions (Wire.Reader.rest r) in
  Ok
    (Message.Flow_mod
       {
         Flow_table.command;
         fm_priority;
         fm_match;
         fm_actions;
         fm_cookie = int64_of_halves chi clo;
       })

let decode s =
  let r = Wire.Reader.of_string s in
  let* v = Wire.Reader.u8 r in
  if v <> version then Error (Wire.Unsupported "openflow version")
  else
    let* ty = Wire.Reader.u8 r in
    let* total = Wire.Reader.u16 r in
    let* xid_raw = Wire.Reader.u32 r in
    let xid = xid_raw land 0x7FFFFFFF in
    if total < 8 then Error (Wire.Malformed "openflow length")
    else if total > String.length s then Error (Wire.Truncated "openflow body")
    else
      let* body = Wire.Reader.take r (total - 8) in
      let* msg =
        if ty = t_hello then Ok Message.Hello
        else if ty = t_echo_request then Ok (Message.Echo_request xid)
        else if ty = t_echo_reply then Ok (Message.Echo_reply xid)
        else if ty = t_features_request then Ok Message.Features_request
        else if ty = t_features_reply then decode_features_reply body
        else if ty = t_packet_in then decode_packet_in body
        else if ty = t_packet_out then decode_packet_out body
        else if ty = t_flow_mod then decode_flow_mod body
        else if ty = t_barrier_request then Ok (Message.Barrier_request xid)
        else if ty = t_barrier_reply then Ok (Message.Barrier_reply xid)
        else Error (Wire.Unsupported "openflow message type")
      in
      Ok (msg, total)

let decode_exact s =
  let* msg, consumed = decode s in
  if consumed = String.length s then Ok msg else Error (Wire.Malformed "trailing bytes")
