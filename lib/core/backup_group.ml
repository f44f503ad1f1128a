type binding = {
  next_hops : Net.Ipv4.t list;
  vnh : Net.Ipv4.t;
  vmac : Net.Mac.t;
  mutable refs : int; (* prefixes currently announced with this VNH *)
}

let pp_binding ppf b =
  Fmt.pf ppf "[%a] -> (%a, %a)"
    Fmt.(list ~sep:(any ",") Net.Ipv4.pp)
    b.next_hops Net.Ipv4.pp b.vnh Net.Mac.pp b.vmac

module Key = struct
  type t = Net.Ipv4.t list

  let equal = List.equal Net.Ipv4.equal

  (* Explicit structural hash: polymorphic Hashtbl.hash must not touch
     abstract net types (determinism discipline, sc_lint). *)
  let hash key =
    List.fold_left (fun h ip -> (h * 31) + Net.Ipv4.hash ip) 17 key land max_int
end

module Key_table = Hashtbl.Make (Key)

module Ip_table = Hashtbl.Make (Net.Ipv4)

module Mac_table = Hashtbl.Make (Net.Mac)

type t = {
  allocator : Vnh.t;
  group_size : int;
  by_key : binding Key_table.t;
  by_vnh : binding Ip_table.t;
  by_vmac : binding Mac_table.t;
  mutable order : binding list; (* reversed creation order *)
  mutable live : int; (* bindings with refs > 0 *)
  mutable create_cb : (binding -> unit) option;
  mutable idle_cb : (binding -> unit) option;
}

let create ?(group_size = 2) allocator =
  if group_size < 2 then invalid_arg "Backup_group.create: group_size < 2";
  {
    allocator;
    group_size;
    by_key = Key_table.create 64;
    by_vnh = Ip_table.create 64;
    by_vmac = Mac_table.create 64;
    order = [];
    live = 0;
    create_cb = None;
    idle_cb = None;
  }

let group_size t = t.group_size

let key_of_next_hops t nhs = List.filteri (fun i _ -> i < t.group_size) nhs

let find t nhs = Key_table.find_opt t.by_key (key_of_next_hops t nhs)

let find_or_create t nhs =
  let key = key_of_next_hops t nhs in
  if List.length key < 2 then
    invalid_arg "Backup_group.find_or_create: need at least two next hops";
  match Key_table.find_opt t.by_key key with
  | Some binding -> binding
  | None ->
    let vnh, vmac = Vnh.fresh t.allocator in
    let binding = { next_hops = key; vnh; vmac; refs = 0 } in
    Key_table.replace t.by_key key binding;
    Ip_table.replace t.by_vnh vnh binding;
    Mac_table.replace t.by_vmac vmac binding;
    t.order <- binding :: t.order;
    (match t.create_cb with Some f -> f binding | None -> ());
    binding

let find_by_vnh t vnh = Ip_table.find_opt t.by_vnh vnh
let find_by_vmac t vmac = Mac_table.find_opt t.by_vmac vmac

let all t = List.rev t.order

let with_primary t peer =
  List.filter
    (fun b -> match b.next_hops with nh :: _ -> Net.Ipv4.equal nh peer | [] -> false)
    (all t)

let with_member t peer =
  List.filter (fun b -> List.exists (Net.Ipv4.equal peer) b.next_hops) (all t)

let count t = Key_table.length t.by_key

let acquire t binding =
  if binding.refs = 0 then t.live <- t.live + 1;
  binding.refs <- binding.refs + 1

let release t binding =
  if binding.refs <= 0 then invalid_arg "Backup_group.release: refcount underflow";
  binding.refs <- binding.refs - 1;
  if binding.refs = 0 then begin
    t.live <- t.live - 1;
    match t.idle_cb with Some f -> f binding | None -> ()
  end

let refs binding = binding.refs
let live_count t = t.live

let registered t binding =
  match Key_table.find_opt t.by_key binding.next_hops with
  | Some current -> current == binding
  | None -> false

let destroy t binding =
  if binding.refs = 0 && registered t binding then begin
    Key_table.remove t.by_key binding.next_hops;
    Ip_table.remove t.by_vnh binding.vnh;
    Mac_table.remove t.by_vmac binding.vmac;
    t.order <- List.filter (fun b -> b != binding) t.order;
    Vnh.release t.allocator (binding.vnh, binding.vmac);
    true
  end
  else false

let on_create t f = t.create_cb <- Some f
let on_idle t f = t.idle_cb <- Some f

let theoretical_max ~n_peers ~group_size =
  let rec falling n k = if k = 0 then 1 else n * falling (n - 1) (k - 1) in
  (* Tuples shorter than [group_size] occur when a prefix has fewer
     candidates, so every ordered j-tuple with 2 <= j <= group_size is a
     possible group. *)
  let rec total j acc =
    if j > group_size || j > n_peers then acc
    else total (j + 1) (acc + falling n_peers j)
  in
  total 2 0
