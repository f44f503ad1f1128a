type error =
  | Truncated of string
  | Bad_checksum of string
  | Unsupported of string
  | Malformed of string

let pp_error ppf = function
  | Truncated what -> Fmt.pf ppf "truncated %s" what
  | Bad_checksum layer -> Fmt.pf ppf "bad %s checksum" layer
  | Unsupported what -> Fmt.pf ppf "unsupported %s" what
  | Malformed what -> Fmt.pf ppf "malformed %s" what

module Buf = struct
  type t = Buffer.t

  let create () = Buffer.create 64
  let u8 t v = Buffer.add_char t (Char.chr (v land 0xFF))

  let u16 t v =
    u8 t (v lsr 8);
    u8 t v

  let u32 t v =
    u16 t (v lsr 16);
    u16 t v

  let bytes t s = Buffer.add_string t s
  let length = Buffer.length
  let contents = Buffer.contents
end

module Reader = struct
  type t = { data : string; mutable pos : int }

  let of_string data = { data; pos = 0 }
  let pos t = t.pos
  let remaining t = String.length t.data - t.pos

  let u8 t =
    if remaining t < 1 then Error (Truncated "u8")
    else begin
      let v = Char.code t.data.[t.pos] in
      t.pos <- t.pos + 1;
      Ok v
    end

  let u16 t =
    if remaining t < 2 then Error (Truncated "u16")
    else begin
      let hi = Char.code t.data.[t.pos] and lo = Char.code t.data.[t.pos + 1] in
      t.pos <- t.pos + 2;
      Ok ((hi lsl 8) lor lo)
    end

  let u32 t =
    if remaining t < 4 then Error (Truncated "u32")
    else begin
      let v =
        (String.get_uint16_be t.data t.pos lsl 16) lor String.get_uint16_be t.data (t.pos + 2)
      in
      t.pos <- t.pos + 4;
      Ok v
    end

  let take t n =
    if n < 0 then Error (Malformed "negative length")
    else if remaining t < n then Error (Truncated "bytes")
    else begin
      let s = String.sub t.data t.pos n in
      t.pos <- t.pos + n;
      Ok s
    end

  let rest t =
    let s = String.sub t.data t.pos (remaining t) in
    t.pos <- String.length t.data;
    s
end

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let internet_checksum s =
  let len = String.length s in
  let sum = ref 0 in
  let i = ref 0 in
  while !i + 1 < len do
    sum := !sum + ((Char.code s.[!i] lsl 8) lor Char.code s.[!i + 1]);
    i := !i + 2
  done;
  if len land 1 = 1 then sum := !sum + (Char.code s.[len - 1] lsl 8);
  while !sum lsr 16 <> 0 do
    sum := (!sum land 0xFFFF) + (!sum lsr 16)
  done;
  lnot !sum land 0xFFFF

let write_mac buf mac =
  Array.iter (fun b -> Buf.u8 buf b) (Mac.to_bytes mac)

let read_mac r =
  let* s = Reader.take r 6 in
  Ok (Mac.of_bytes (Array.init 6 (fun i -> Char.code s.[i])))

let write_ip buf ip = Buf.u32 buf (Ipv4.to_int ip)

let read_ip r =
  let* v = Reader.u32 r in
  Ok (Ipv4.of_int v)

(* --- ARP (RFC 826, Ethernet/IPv4) ------------------------------------ *)

let encode_arp buf (a : Arp.t) =
  Buf.u16 buf 1 (* htype: Ethernet *);
  Buf.u16 buf 0x0800 (* ptype: IPv4 *);
  Buf.u8 buf 6;
  Buf.u8 buf 4;
  Buf.u16 buf (match a.op with Arp.Request -> 1 | Arp.Reply -> 2);
  write_mac buf a.sender_mac;
  write_ip buf a.sender_ip;
  write_mac buf a.target_mac;
  write_ip buf a.target_ip

let decode_arp r =
  let* htype = Reader.u16 r in
  let* ptype = Reader.u16 r in
  let* hlen = Reader.u8 r in
  let* plen = Reader.u8 r in
  if htype <> 1 || ptype <> 0x0800 || hlen <> 6 || plen <> 4 then
    Error (Unsupported "arp hardware/protocol type")
  else
    let* oper = Reader.u16 r in
    let* op =
      match oper with
      | 1 -> Ok Arp.Request
      | 2 -> Ok Arp.Reply
      | _ -> Error (Malformed "arp operation")
    in
    let* sender_mac = read_mac r in
    let* sender_ip = read_ip r in
    let* target_mac = read_mac r in
    let* target_ip = read_ip r in
    Ok { Arp.op; sender_mac; sender_ip; target_mac; target_ip }

(* --- UDP -------------------------------------------------------------- *)

let udp_pseudo_header ~src ~dst ~udp_len =
  let buf = Buf.create () in
  write_ip buf src;
  write_ip buf dst;
  Buf.u8 buf 0;
  Buf.u8 buf 17;
  Buf.u16 buf udp_len;
  Buf.contents buf

let encode_udp_raw (u : Udp.t) ~src ~dst =
  let udp_len = Udp.length u in
  let header_no_ck = Buf.create () in
  Buf.u16 header_no_ck u.src_port;
  Buf.u16 header_no_ck u.dst_port;
  Buf.u16 header_no_ck udp_len;
  Buf.u16 header_no_ck 0;
  let pseudo = udp_pseudo_header ~src ~dst ~udp_len in
  let ck =
    internet_checksum (pseudo ^ Buf.contents header_no_ck ^ u.payload)
  in
  (* RFC 768: a computed zero checksum is transmitted as all-ones. *)
  let ck = if ck = 0 then 0xFFFF else ck in
  let buf = Buf.create () in
  Buf.u16 buf u.src_port;
  Buf.u16 buf u.dst_port;
  Buf.u16 buf udp_len;
  Buf.u16 buf ck;
  Buf.bytes buf u.payload;
  Buf.contents buf

let decode_udp body ~src ~dst =
  let r = Reader.of_string body in
  let* src_port = Reader.u16 r in
  let* dst_port = Reader.u16 r in
  let* udp_len = Reader.u16 r in
  let* ck = Reader.u16 r in
  if udp_len < 8 || udp_len > String.length body then Error (Malformed "udp length")
  else
    let payload = String.sub body 8 (udp_len - 8) in
    let valid =
      ck = 0
      ||
      let pseudo = udp_pseudo_header ~src ~dst ~udp_len in
      let segment = String.sub body 0 udp_len in
      internet_checksum (pseudo ^ segment) = 0
    in
    if not valid then Error (Bad_checksum "udp")
    else Ok (Udp.make ~src_port ~dst_port ~payload)

(* --- IPv4 ------------------------------------------------------------- *)

let encode_ipv4 buf (p : Ipv4_packet.t) =
  let body =
    match p.payload with
    | Ipv4_packet.Udp u -> encode_udp_raw u ~src:p.src ~dst:p.dst
    | Ipv4_packet.Raw { body; _ } -> body
  in
  let total_len = 20 + String.length body in
  let header_no_ck = Buf.create () in
  Buf.u8 header_no_ck 0x45 (* version 4, IHL 5 *);
  Buf.u8 header_no_ck 0 (* DSCP/ECN *);
  Buf.u16 header_no_ck total_len;
  Buf.u16 header_no_ck 0 (* identification *);
  Buf.u16 header_no_ck 0x4000 (* DF, no fragment *);
  Buf.u8 header_no_ck p.ttl;
  Buf.u8 header_no_ck (Ipv4_packet.protocol_number p);
  Buf.u16 header_no_ck 0 (* checksum placeholder *);
  write_ip header_no_ck p.src;
  write_ip header_no_ck p.dst;
  let raw_header = Buf.contents header_no_ck in
  let ck = internet_checksum raw_header in
  let patched = Bytes.of_string raw_header in
  Bytes.set patched 10 (Char.chr (ck lsr 8));
  Bytes.set patched 11 (Char.chr (ck land 0xFF));
  Buf.bytes buf (Bytes.to_string patched);
  Buf.bytes buf body

let decode_ipv4 body =
  let r = Reader.of_string body in
  let* version_ihl = Reader.u8 r in
  if version_ihl lsr 4 <> 4 then Error (Malformed "ip version")
  else if version_ihl land 0xF <> 5 then Error (Unsupported "ipv4 options")
  else
    let* _dscp = Reader.u8 r in
    let* total_len = Reader.u16 r in
    let* _ident = Reader.u16 r in
    let* _flags = Reader.u16 r in
    let* ttl = Reader.u8 r in
    let* protocol = Reader.u8 r in
    let* _ck = Reader.u16 r in
    let* src = read_ip r in
    let* dst = read_ip r in
    if total_len < 20 || total_len > String.length body then
      Error (Malformed "ip total length")
    else if internet_checksum (String.sub body 0 20) <> 0 then
      Error (Bad_checksum "ipv4")
    else
      let payload_bytes = String.sub body 20 (total_len - 20) in
      let* payload =
        if protocol = 17 then
          let* u = decode_udp payload_bytes ~src ~dst in
          Ok (Ipv4_packet.Udp u)
        else Ok (Ipv4_packet.Raw { protocol; body = payload_bytes })
      in
      Ok (Ipv4_packet.make ~ttl ~src ~dst payload)

(* --- Ethernet --------------------------------------------------------- *)

let encode_frame (f : Ethernet.frame) =
  let buf = Buf.create () in
  write_mac buf f.dst;
  write_mac buf f.src;
  Buf.u16 buf (Ethernet.ethertype f);
  (match f.payload with
  | Ethernet.Arp a -> encode_arp buf a
  | Ethernet.Ipv4 p -> encode_ipv4 buf p);
  Buf.contents buf

let decode_frame s =
  let r = Reader.of_string s in
  let* dst = read_mac r in
  let* src = read_mac r in
  let* ethertype = Reader.u16 r in
  let body = Reader.rest r in
  let* payload =
    match ethertype with
    | 0x0806 ->
      let* a = decode_arp (Reader.of_string body) in
      Ok (Ethernet.Arp a)
    | 0x0800 ->
      let* p = decode_ipv4 body in
      Ok (Ethernet.Ipv4 p)
    | _ -> Error (Unsupported "ethertype")
  in
  Ok (Ethernet.make ~src ~dst payload)
