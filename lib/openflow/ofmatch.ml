type t = {
  in_port : int option;
  dl_src : Net.Mac.t option;
  dl_dst : Net.Mac.t option;
  dl_type : int option;
  nw_src : Net.Prefix.t option;
  nw_dst : Net.Prefix.t option;
  nw_proto : int option;
  tp_src : int option;
  tp_dst : int option;
}

let any =
  {
    in_port = None;
    dl_src = None;
    dl_dst = None;
    dl_type = None;
    nw_src = None;
    nw_dst = None;
    nw_proto = None;
    tp_src = None;
    tp_dst = None;
  }

let dl_dst mac = { any with dl_dst = Some mac }

let make ?in_port ?dl_src ?dl_dst ?dl_type ?nw_src ?nw_dst ?nw_proto ?tp_src
    ?tp_dst () =
  { in_port; dl_src; dl_dst; dl_type; nw_src; nw_dst; nw_proto; tp_src; tp_dst }

type context = {
  mutable arrival_port : int;
  mutable frame : Net.Ethernet.frame;
}

(* Field-by-field, with no closures and no intermediate tuple: this runs
   once per rule tried per packet. For ARP frames, OpenFlow 1.0 overlays
   the network fields: nw_src/nw_dst are the ARP sender/target addresses
   and nw_proto is the opcode; ARP frames have no transport ports. *)
let[@lint.zero_alloc] ip_ok t (p : Net.Ipv4_packet.t) =
  (match t.nw_src with None -> true | Some pfx -> Net.Prefix.mem p.src pfx)
  && (match t.nw_dst with None -> true | Some pfx -> Net.Prefix.mem p.dst pfx)
  && (match t.nw_proto with
     | None -> true
     | Some pr -> pr = Net.Ipv4_packet.protocol_number p)
  &&
  match p.payload with
  | Net.Ipv4_packet.Udp u ->
    (match t.tp_src with None -> true | Some port -> port = u.Net.Udp.src_port)
    && (match t.tp_dst with None -> true | Some port -> port = u.Net.Udp.dst_port)
  | Net.Ipv4_packet.Raw _ -> Option.is_none t.tp_src && Option.is_none t.tp_dst

let[@lint.zero_alloc] arp_ok t (a : Net.Arp.t) =
  (match t.nw_src with None -> true | Some pfx -> Net.Prefix.mem a.sender_ip pfx)
  && (match t.nw_dst with None -> true | Some pfx -> Net.Prefix.mem a.target_ip pfx)
  && (match t.nw_proto with
     | None -> true
     | Some pr -> pr = (match a.op with Net.Arp.Request -> 1 | Net.Arp.Reply -> 2))
  && Option.is_none t.tp_src && Option.is_none t.tp_dst

let[@lint.zero_alloc] matches t ctx =
  let frame = ctx.frame in
  (match t.in_port with None -> true | Some p -> p = ctx.arrival_port)
  && (match t.dl_src with None -> true | Some m -> Net.Mac.equal m frame.src)
  && (match t.dl_dst with None -> true | Some m -> Net.Mac.equal m frame.dst)
  && (match t.dl_type with None -> true | Some ty -> ty = Net.Ethernet.ethertype frame)
  &&
  match frame.payload with
  | Net.Ethernet.Ipv4 p -> ip_ok t p
  | Net.Ethernet.Arp a -> arp_ok t a

let equal a b =
  Option.equal Int.equal a.in_port b.in_port
  && Option.equal Net.Mac.equal a.dl_src b.dl_src
  && Option.equal Net.Mac.equal a.dl_dst b.dl_dst
  && Option.equal Int.equal a.dl_type b.dl_type
  && Option.equal Net.Prefix.equal a.nw_src b.nw_src
  && Option.equal Net.Prefix.equal a.nw_dst b.nw_dst
  && Option.equal Int.equal a.nw_proto b.nw_proto
  && Option.equal Int.equal a.tp_src b.tp_src
  && Option.equal Int.equal a.tp_dst b.tp_dst

(* Explicit structural hash mirroring [equal]; polymorphic Hashtbl.hash
   must not touch abstract net types (determinism discipline, sc_lint). *)
let hash t =
  let opt f = function Some v -> f v + 1 | None -> 0 in
  List.fold_left
    (fun h n -> (h * 31) + n)
    17
    [
      opt Fun.id t.in_port; opt Net.Mac.hash t.dl_src;
      opt Net.Mac.hash t.dl_dst; opt Fun.id t.dl_type;
      opt Net.Prefix.hash t.nw_src; opt Net.Prefix.hash t.nw_dst;
      opt Fun.id t.nw_proto; opt Fun.id t.tp_src; opt Fun.id t.tp_dst;
    ]
  land max_int

let subsumes a b =
  let field eq fa fb =
    match fa, fb with
    | None, _ -> true
    | Some _, None -> false
    | Some va, Some vb -> eq va vb
  in
  let prefix_covers pa pb = Net.Prefix.subset pb pa in
  field Int.equal a.in_port b.in_port
  && field Net.Mac.equal a.dl_src b.dl_src
  && field Net.Mac.equal a.dl_dst b.dl_dst
  && field Int.equal a.dl_type b.dl_type
  && field prefix_covers a.nw_src b.nw_src
  && field prefix_covers a.nw_dst b.nw_dst
  && field Int.equal a.nw_proto b.nw_proto
  && field Int.equal a.tp_src b.tp_src
  && field Int.equal a.tp_dst b.tp_dst

let is_any t = equal t any

let pp ppf t =
  let field name pp_v ppf = function
    | Some v -> Fmt.pf ppf "%s=%a " name pp_v v
    | None -> ()
  in
  if is_any t then Fmt.string ppf "*"
  else begin
    field "in_port" Fmt.int ppf t.in_port;
    field "dl_src" Net.Mac.pp ppf t.dl_src;
    field "dl_dst" Net.Mac.pp ppf t.dl_dst;
    field "dl_type" (fun ppf -> Fmt.pf ppf "0x%04x") ppf t.dl_type;
    field "nw_src" Net.Prefix.pp ppf t.nw_src;
    field "nw_dst" Net.Prefix.pp ppf t.nw_dst;
    field "nw_proto" Fmt.int ppf t.nw_proto;
    field "tp_src" Fmt.int ppf t.tp_src;
    field "tp_dst" Fmt.int ppf t.tp_dst
  end
