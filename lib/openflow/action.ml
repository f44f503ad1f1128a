type t =
  | Output of int
  | Flood
  | Set_dl_src of Net.Mac.t
  | Set_dl_dst of Net.Mac.t
  | Set_nw_src of Net.Ipv4.t
  | Set_nw_dst of Net.Ipv4.t
  | To_controller

type result = {
  frame : Net.Ethernet.frame;
  ports : int list;
  flood : bool;
  to_controller : bool;
}

let rewrite_ip frame ~f =
  match frame.Net.Ethernet.payload with
  | Net.Ethernet.Ipv4 p -> { frame with Net.Ethernet.payload = Net.Ethernet.Ipv4 (f p) }
  | Net.Ethernet.Arp _ -> frame

(* A tail-recursive fold over the action list, with no [ref] cells and
   no [List.iter] closure: the paper's rule (rewrite, then output)
   allocates only what its result carries — the rewritten frame, the
   port list and the result record. *)
let rec fold frame ports flood to_controller = function
  | [] ->
    (* [ports] is reversed; a single port needs no copy *)
    let ports = match ports with [] | [_] -> ports | _ -> List.rev ports in
    { frame; ports; flood; to_controller }
  | Output port :: rest -> fold frame (port :: ports) flood to_controller rest
  | Flood :: rest -> fold frame ports true to_controller rest
  | Set_dl_src mac :: rest ->
    fold { frame with Net.Ethernet.src = mac } ports flood to_controller rest
  | Set_dl_dst mac :: rest ->
    fold { frame with Net.Ethernet.dst = mac } ports flood to_controller rest
  | Set_nw_src ip :: rest ->
    fold (rewrite_ip frame ~f:(fun p -> { p with Net.Ipv4_packet.src = ip }))
      ports flood to_controller rest
  | Set_nw_dst ip :: rest ->
    fold (rewrite_ip frame ~f:(fun p -> { p with Net.Ipv4_packet.dst = ip }))
      ports flood to_controller rest
  | To_controller :: rest -> fold frame ports flood true rest

let apply actions frame = fold frame [] false false actions

let equal a b =
  match a, b with
  | Output x, Output y -> x = y
  | Flood, Flood -> true
  | Set_dl_src x, Set_dl_src y | Set_dl_dst x, Set_dl_dst y -> Net.Mac.equal x y
  | Set_nw_src x, Set_nw_src y | Set_nw_dst x, Set_nw_dst y -> Net.Ipv4.equal x y
  | To_controller, To_controller -> true
  | ( ( Output _ | Flood | Set_dl_src _ | Set_dl_dst _ | Set_nw_src _
      | Set_nw_dst _ | To_controller ),
      _ ) ->
    false

let pp ppf = function
  | Output p -> Fmt.pf ppf "output:%d" p
  | Flood -> Fmt.string ppf "flood"
  | Set_dl_src m -> Fmt.pf ppf "set_dl_src:%a" Net.Mac.pp m
  | Set_dl_dst m -> Fmt.pf ppf "set_dl_dst:%a" Net.Mac.pp m
  | Set_nw_src i -> Fmt.pf ppf "set_nw_src:%a" Net.Ipv4.pp i
  | Set_nw_dst i -> Fmt.pf ppf "set_nw_dst:%a" Net.Ipv4.pp i
  | To_controller -> Fmt.string ppf "controller"

let pp_list ppf = function
  | [] -> Fmt.string ppf "drop"
  | actions -> Fmt.(list ~sep:comma pp) ppf actions
