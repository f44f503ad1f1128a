module Ip_table = Hashtbl.Make (Net.Ipv4)

type t = Lsa.t Ip_table.t

let create () = Ip_table.create 16

type verdict =
  | Installed
  | Duplicate
  | Stale

let install t (lsa : Lsa.t) =
  match Ip_table.find_opt t lsa.origin with
  | None ->
    Ip_table.replace t lsa.origin lsa;
    Installed
  | Some held ->
    if Lsa.newer lsa ~than:held then begin
      Ip_table.replace t lsa.origin lsa;
      Installed
    end
    else if lsa.seq = held.seq then
      if Lsa.equal lsa held then Duplicate
      else begin
        (* Same sequence number but different links: a topology change
           the origin failed to version (or a divergent copy). Dropping
           it as a duplicate would silently lose the change and stop it
           from flooding, so install it and let the caller flood. *)
        Ip_table.replace t lsa.origin lsa;
        Installed
      end
    else Stale

let find t origin = Ip_table.find_opt t origin

let all t = Ip_table.fold (fun _ lsa acc -> lsa :: acc) t []

let snapshot t =
  List.sort
    (fun (a : Lsa.t) (b : Lsa.t) -> Net.Ipv4.compare a.origin b.origin)
    (all t)

let equal a b =
  List.length (snapshot a) = List.length (snapshot b)
  && List.for_all2 Lsa.equal (snapshot a) (snapshot b)

let cardinal t = Ip_table.length t
