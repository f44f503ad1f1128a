type hop = {
  nh : Net.Ipv4.t;
  mac : Net.Mac.t;
  port : int;
}

let pp_hop ppf h = Fmt.pf ppf "%a (%a, port %d)" Net.Ipv4.pp h.nh Net.Mac.pp h.mac h.port

type peer = {
  p_ip : Net.Ipv4.t;
  p_mac : Net.Mac.t;
  p_port : int;
  mutable p_alive : bool;
}

module Prefix_table = Hashtbl.Make (Net.Prefix)

type t = {
  peers : (int, peer) Hashtbl.t;
  routes : Bgp.Route.t list Prefix_table.t;  (* unranked candidates *)
}

let create () = { peers = Hashtbl.create 8; routes = Prefix_table.create 256 }

let declare_peer t ~id ~ip ~mac ~port =
  Hashtbl.replace t.peers id { p_ip = ip; p_mac = mac; p_port = port; p_alive = true }

let peer_exn t id =
  match Hashtbl.find_opt t.peers id with
  | Some p -> p
  | None -> invalid_arg (Fmt.str "Oracle: peer %d not declared" id)

let announce t ~peer prefix attrs =
  let p = peer_exn t peer in
  let route = Bgp.Route.make ~peer_id:peer ~peer_router_id:p.p_ip attrs in
  let others =
    match Prefix_table.find_opt t.routes prefix with
    | Some rs -> List.filter (fun (r : Bgp.Route.t) -> r.peer_id <> peer) rs
    | None -> []
  in
  Prefix_table.replace t.routes prefix (route :: others)

let withdraw t ~peer prefix =
  ignore (peer_exn t peer);
  match Prefix_table.find_opt t.routes prefix with
  | None -> ()
  | Some rs -> (
    match List.filter (fun (r : Bgp.Route.t) -> r.peer_id <> peer) rs with
    | [] -> Prefix_table.remove t.routes prefix
    | rest -> Prefix_table.replace t.routes prefix rest)

let peer_down t id = (peer_exn t id).p_alive <- false
let peer_up t id = (peer_exn t id).p_alive <- true
let alive t id = (peer_exn t id).p_alive

let alive_candidates t prefix =
  match Prefix_table.find_opt t.routes prefix with
  | None -> []
  | Some rs ->
    List.filter
      (fun (r : Bgp.Route.t) ->
        match Hashtbl.find_opt t.peers r.peer_id with
        | Some p -> p.p_alive
        | None -> false)
      rs

let candidates = alive_candidates

let best t prefix = Bgp.Decision.best (alive_candidates t prefix)

let peer_routes t ~peer =
  ignore (peer_exn t peer);
  Prefix_table.fold
    (fun prefix rs acc ->
      match List.find_opt (fun (r : Bgp.Route.t) -> r.peer_id = peer) rs with
      | Some r -> (prefix, r.Bgp.Route.attrs) :: acc
      | None -> acc)
    t.routes []
  |> List.sort (fun (p, _) (q, _) -> Net.Prefix.compare p q)

let iter_stored t f = Prefix_table.iter f t.routes

let covered t =
  Prefix_table.fold
    (fun prefix _ acc -> if alive_candidates t prefix <> [] then acc + 1 else acc)
    t.routes 0

let lookup t prefix =
  match best t prefix with
  | None -> None
  | Some r ->
    let p = peer_exn t r.Bgp.Route.peer_id in
    Some { nh = p.p_ip; mac = p.p_mac; port = p.p_port }

let prefixes t =
  Prefix_table.fold
    (fun prefix _ acc -> if alive_candidates t prefix <> [] then prefix :: acc else acc)
    t.routes []
  |> List.sort Net.Prefix.compare
