module Table = Hashtbl.Make (Net.Prefix)

module Peer_table = Hashtbl.Make (Int)

type t = {
  shards : Route.t list Table.t array;
      (* one ranked-candidate table per mask length (index 0..32): every
         update touches exactly the shard of its own length, so a shard
         only ever hashes and resizes over same-length prefixes, the
         dominant /24 band never drags the thin aggregate bands through
         its resizes, and per-length occupancy is readable in O(1). *)
  by_peer : unit Table.t Peer_table.t;
      (* peer_id -> set of prefixes the peer currently has a candidate
         for. Maintained incrementally so a session loss touches only
         the peer's own prefixes, never the whole table. *)
  mutable visits : int;
      (* monotonic count of candidate-list nodes inspected by the
         splice/withdraw walks — the work measure the peer-down
         regression test and the ribscale bench pin. *)
}

let create () =
  {
    shards = Array.init 33 (fun _ -> Table.create 64);
    by_peer = Peer_table.create 16;
    visits = 0;
  }

type change = {
  prefix : Net.Prefix.t;
  before : Route.t list;
  after : Route.t list;
}

let shard t prefix = t.shards.(Net.Prefix.length prefix)

let ordered t prefix =
  match Table.find_opt (shard t prefix) prefix with Some l -> l | None -> []

let best t prefix =
  match ordered t prefix with [] -> None | r :: _ -> Some r

(* --- per-peer prefix index -------------------------------------------- *)

let index_add t ~peer_id prefix =
  let set =
    match Peer_table.find_opt t.by_peer peer_id with
    | Some set -> set
    | None ->
      let set = Table.create 64 in
      Peer_table.replace t.by_peer peer_id set;
      set
  in
  Table.replace set prefix ()

let index_remove t ~peer_id prefix =
  match Peer_table.find_opt t.by_peer peer_id with
  | None -> ()
  | Some set ->
    Table.remove set prefix;
    if Table.length set = 0 then Peer_table.remove t.by_peer peer_id

let peer_prefix_count t ~peer_id =
  match Peer_table.find_opt t.by_peer peer_id with
  | Some set -> Table.length set
  | None -> 0

let peer_prefixes t ~peer_id =
  match Peer_table.find_opt t.by_peer peer_id with
  | None -> []
  | Some set -> Table.fold (fun prefix () acc -> prefix :: acc) set []

(* --- candidate list maintenance --------------------------------------- *)

(* Every node inspected by the walks below bumps [t.visits]; the
   counters are how the tests prove the incremental decision process
   re-ranks only the touched prefix's splice, never a full re-scan. *)

let rec insert_sorted t route = function
  | [] -> [route]
  | r :: rest as l ->
    t.visits <- t.visits + 1;
    if Decision.compare route r <= 0 then route :: l
    else r :: insert_sorted t route rest

let rec drop_peer t ~peer_id = function
  | [] -> []
  | (r : Route.t) :: rest ->
    t.visits <- t.visits + 1;
    if r.peer_id = peer_id then rest else r :: drop_peer t ~peer_id rest

exception Unchanged

(* One walk replacing the old List.filter + insert_sorted pair: drop the
   peer's previous candidate and splice the new route in at its rank.
   Raises [Unchanged] (before allocating any of the result) when the
   peer re-announces a route identical to its stored one. *)
let rec splice t (route : Route.t) = function
  | [] -> [route]
  | (r : Route.t) :: rest as l ->
    t.visits <- t.visits + 1;
    if r.peer_id = route.peer_id then
      if Route.equal r route then raise_notrace Unchanged
      else insert_sorted t route rest
    else if Decision.compare route r <= 0 then
      route :: drop_peer t ~peer_id:route.peer_id l
    else r :: splice t route rest

let store t prefix routes =
  match routes with
  | [] -> Table.remove (shard t prefix) prefix
  | _ -> Table.replace (shard t prefix) prefix routes

let announce t prefix (route : Route.t) =
  let before = ordered t prefix in
  match splice t route before with
  | after ->
    store t prefix after;
    index_add t ~peer_id:route.peer_id prefix;
    Some { prefix; before; after }
  | exception Unchanged -> None

let withdraw t prefix ~peer_id =
  let before = ordered t prefix in
  if
    List.exists
      (fun (r : Route.t) ->
        t.visits <- t.visits + 1;
        r.peer_id = peer_id)
      before
  then begin
    let after = drop_peer t ~peer_id before in
    store t prefix after;
    index_remove t ~peer_id prefix;
    Some { prefix; before; after }
  end
  else None

let withdraw_peer t ~peer_id =
  (* The index names exactly the affected prefixes, so a peer holding k
     routes costs O(k log k) (the sort makes the change order
     deterministic) no matter how large the table is. *)
  let affected = List.sort Net.Prefix.compare (peer_prefixes t ~peer_id) in
  List.filter_map (fun prefix -> withdraw t prefix ~peer_id) affected

let apply_update t ~peer_id ~peer_router_id ?(ebgp = true) ?(igp_cost = 0)
    (u : Message.update) =
  let withdrawals =
    List.filter_map (fun prefix -> withdraw t prefix ~peer_id) u.withdrawn
  in
  let announcements =
    match u.attrs with
    | None -> []
    | Some attrs ->
      let route = Route.make ~ebgp ~igp_cost ~peer_id ~peer_router_id attrs in
      List.filter_map (fun prefix -> announce t prefix route) u.nlri
  in
  withdrawals @ announcements

let cardinal t = Array.fold_left (fun acc s -> acc + Table.length s) 0 t.shards

let length_histogram t = Array.map Table.length t.shards

let candidate_visits t = t.visits

let iter t f =
  (* Shards ascending by mask length; order within a shard unspecified. *)
  Array.iter (fun s -> Table.iter f s) t.shards

let fold t ~init ~f =
  Array.fold_left
    (fun acc s -> Table.fold (fun prefix routes acc -> f acc prefix routes) s acc)
    init t.shards
