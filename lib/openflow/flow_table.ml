type entry = {
  priority : int;
  ofmatch : Ofmatch.t;
  mutable actions : Action.t list;
  cookie : int64;
  mutable packets : int;
}

type command =
  | Add
  | Modify
  | Modify_strict
  | Delete
  | Delete_strict

type flow_mod = {
  command : command;
  fm_priority : int;
  fm_match : Ofmatch.t;
  fm_actions : Action.t list;
  fm_cookie : int64;
}

let flow_mod ?(cookie = 0L) ?(priority = 100) command ofmatch actions =
  { command; fm_priority = priority; fm_match = ofmatch; fm_actions = actions; fm_cookie = cookie }

(* Lookup cost must not grow with the number of backup groups: every
   per-group rule the controller installs matches an exact [dl_dst] (the
   group's VMAC), and a table holds n·(n−1) of them for n peers. So the
   table is split in tiers, each a priority-descending array of buckets
   (insertion-ordered growable arrays with tombstones, so installing the
   hundreds of thousands of rules a FIB-cache deployment needs stays
   O(1) per flow-mod):

   - one tier per exact [dl_dst] MAC, reached through a hash index keyed
     on that MAC (the index chains);
   - one scanned tier for the rules that wildcard [dl_dst].

   A lookup probes the index once with the frame's destination MAC and
   takes the first match in that chain, then scans the wildcard tier only
   down to the hit's priority. Every rule carries a table-wide install
   sequence number, so the OpenFlow tie-break (highest priority, then
   earliest install) holds across tiers. A second hash index over
   (priority, match) serves the strict commands. *)

type slot = {
  entry : entry;
  some_entry : entry option;
      (* the shared-Some-cell idiom (see Net.Flat_fib): the [Some] is
         allocated once at install time, so hot-path lookups return this
         stored cell instead of wrapping [entry] per packet *)
  seq : int;  (* table-wide install order *)
  mutable live : bool;
}

type bucket = {
  priority : int;
  mutable slots : slot array;
  mutable len : int;
  mutable dead : int;
}

type tier = {
  mac : Net.Mac.t;  (* the chain's [dl_dst]; unused by the wildcard tier *)
  mutable buckets : bucket array;  (* non-empty, priority descending *)
}

module Strict_key = struct
  type t = int * Ofmatch.t

  let equal (pa, ma) (pb, mb) = pa = pb && Ofmatch.equal ma mb
  let hash (p, m) = ((p * 31) + Ofmatch.hash m) land max_int
end

module Strict_index = Hashtbl.Make (Strict_key)

type t = {
  wild : tier;  (* rules with a wildcarded [dl_dst] *)
  mutable chains : tier list array;
      (* the dl_dst index: tiers hashed on [mac]; length a power of two *)
  mutable n_chains : int;
  miss : slot;  (* the walk's "no match" result: priority [min_int] *)
  index : slot Strict_index.t;
  mutable size : int;
  mutable lookups : int;
  mutable next_seq : int;
}

let initial_chains = 16

let create () =
  let none =
    { priority = min_int; ofmatch = Ofmatch.any; actions = []; cookie = 0L; packets = 0 }
  in
  {
    wild = { mac = Net.Mac.zero; buckets = [||] };
    chains = Array.make initial_chains [];
    n_chains = 0;
    miss = { entry = none; some_entry = None; seq = max_int; live = false };
    index = Strict_index.create 64;
    size = 0;
    lookups = 0;
    next_seq = 0;
  }

(* ------------------------------------------------------------------ *)
(* The lookup walk, shared by every entry point. Top-level recursion
   rather than nested closures: it runs once per packet and must not
   capture. Bounds: [bi] is checked against the tier length and [si]
   against the bucket's live length before every unsafe read. *)

let[@lint.zero_alloc] rec chain_buckets mac tiers =
  match tiers with
  | [] -> [||]
  | tier :: rest -> if Net.Mac.equal tier.mac mac then tier.buckets else chain_buckets mac rest

(* First live match in a chain, or [miss]. *)
let[@lint.zero_alloc] rec scan_chain miss buckets ctx bi si =
  if bi >= Array.length buckets then miss
  else begin
    let b = Array.unsafe_get buckets bi in
    if si >= b.len then scan_chain miss buckets ctx (bi + 1) 0
    else begin
      let slot = Array.unsafe_get b.slots si in
      if slot.live && Ofmatch.matches slot.entry.ofmatch ctx then slot
      else scan_chain miss buckets ctx bi (si + 1)
    end
  end

(* The wildcard tier can beat the indexed [hit] only at a higher
   priority, or at the same priority with an earlier install; slots sit
   in install order, so the scan stops at the first later one. *)
let[@lint.zero_alloc] rec scan_wild hit buckets ctx bi si =
  if bi >= Array.length buckets then hit
  else begin
    let b = Array.unsafe_get buckets bi in
    if b.priority < hit.entry.priority then hit
    else if si >= b.len then scan_wild hit buckets ctx (bi + 1) 0
    else begin
      let slot = Array.unsafe_get b.slots si in
      if b.priority = hit.entry.priority && slot.seq > hit.seq then hit
      else if slot.live && Ofmatch.matches slot.entry.ofmatch ctx then slot
      else scan_wild hit buckets ctx bi (si + 1)
    end
  end

let[@lint.zero_alloc] chain_slot t mac = Net.Mac.hash mac land (Array.length t.chains - 1)

let[@lint.zero_alloc] find t ctx =
  let mac = ctx.Ofmatch.frame.Net.Ethernet.dst in
  let chain = chain_buckets mac (Array.unsafe_get t.chains (chain_slot t mac)) in
  scan_wild (scan_chain t.miss chain ctx 0 0) t.wild.buckets ctx 0 0

let[@lint.zero_alloc] peek t ctx = (find t ctx).some_entry

let[@lint.zero_alloc] lookup t ctx =
  t.lookups <- t.lookups + 1;
  match (find t ctx).some_entry with
  | None -> None
  | Some e as hit ->
    e.packets <- e.packets + 1;
    hit

let[@lint.zero_alloc] lookup_batch t ctxs out =
  if Array.length out < Array.length ctxs then
    invalid_arg "Flow_table.lookup_batch: output array shorter than input";
  t.lookups <- t.lookups + Array.length ctxs;
  for i = 0 to Array.length ctxs - 1 do
    match (find t (Array.unsafe_get ctxs i)).some_entry with
    | None -> Array.unsafe_set out i None
    | Some e as hit ->
      e.packets <- e.packets + 1;
      Array.unsafe_set out i hit
  done

(* ------------------------------------------------------------------ *)
(* Flow-mods *)

let find_chain t mac =
  List.find_opt (fun tier -> Net.Mac.equal tier.mac mac) t.chains.(chain_slot t mac)

let grow_chains t =
  let old = t.chains in
  t.chains <- Array.make (2 * Array.length old) [];
  Array.iter
    (List.iter (fun tier ->
         let i = chain_slot t tier.mac in
         t.chains.(i) <- tier :: t.chains.(i)))
    old

(* The tier that holds the rules with match [m], created on first use. *)
let tier_for t (m : Ofmatch.t) =
  match m.dl_dst with
  | None -> t.wild
  | Some mac -> (
    match find_chain t mac with
    | Some tier -> tier
    | None ->
      if t.n_chains >= 2 * Array.length t.chains then grow_chains t;
      let tier = { mac; buckets = [||] } in
      let i = chain_slot t mac in
      t.chains.(i) <- tier :: t.chains.(i);
      t.n_chains <- t.n_chains + 1;
      tier)

let bucket_for tier priority =
  let bs = tier.buckets in
  let n = Array.length bs in
  let rec pos i = if i < n && bs.(i).priority > priority then pos (i + 1) else i in
  let i = pos 0 in
  if i < n && bs.(i).priority = priority then bs.(i)
  else begin
    let b = { priority; slots = [||]; len = 0; dead = 0 } in
    tier.buckets <- Array.concat [Array.sub bs 0 i; [|b|]; Array.sub bs i (n - i)];
    b
  end

let bucket_push b slot =
  if b.len >= Array.length b.slots then begin
    let grown = Array.make (max 8 (2 * Array.length b.slots)) slot in
    Array.blit b.slots 0 grown 0 b.len;
    b.slots <- grown
  end;
  b.slots.(b.len) <- slot;
  b.len <- b.len + 1

(* Drops the tombstones once they are the majority; an emptied bucket
   leaves its tier, and an emptied chain leaves the index. *)
let compact t tier b =
  if b.dead > b.len / 2 then begin
    let live = Array.of_list (List.filter (fun s -> s.live) (Array.to_list (Array.sub b.slots 0 b.len))) in
    b.slots <- live;
    b.len <- Array.length live;
    b.dead <- 0;
    if b.len = 0 then begin
      tier.buckets <- Array.of_list (List.filter (fun b' -> b' != b) (Array.to_list tier.buckets));
      if Array.length tier.buckets = 0 && tier != t.wild then begin
        let i = chain_slot t tier.mac in
        t.chains.(i) <- List.filter (fun c -> c != tier) t.chains.(i);
        t.n_chains <- t.n_chains - 1
      end
    end
  end

let kill t slot =
  if slot.live then begin
    let e = slot.entry in
    slot.live <- false;
    t.size <- t.size - 1;
    Strict_index.remove t.index (e.priority, e.ofmatch);
    let tier = tier_for t e.ofmatch in
    let b = bucket_for tier e.priority in
    b.dead <- b.dead + 1;
    compact t tier b
  end

let iter_tier tier f =
  Array.iter
    (fun b ->
      for i = 0 to b.len - 1 do
        let slot = b.slots.(i) in
        if slot.live then f slot
      done)
    tier.buckets

let iter_tiers t f =
  f t.wild;
  Array.iter (List.iter f) t.chains

(* The live slots [m] subsumes (OF 1.0 non-strict Modify/Delete). A
   pinned [dl_dst] subsumes only rules in that MAC's chain. *)
let subsumed t m =
  let hits = ref [] in
  let visit tier =
    iter_tier tier (fun slot ->
        if Ofmatch.subsumes m slot.entry.ofmatch then hits := slot :: !hits)
  in
  (match m.Ofmatch.dl_dst with
  | Some mac -> Option.iter visit (find_chain t mac)
  | None -> iter_tiers t visit);
  !hits

(* The new rule goes in before the one it replaces is killed, so that
   re-installing a group's rule never empties, drops and rebuilds its
   bucket and chain. *)
let add t fm =
  let key = (fm.fm_priority, fm.fm_match) in
  let replaced = Strict_index.find_opt t.index key in
  let entry =
    {
      priority = fm.fm_priority;
      ofmatch = fm.fm_match;
      actions = fm.fm_actions;
      cookie = fm.fm_cookie;
      packets = 0;
    }
  in
  let slot = { entry; some_entry = Some entry; seq = t.next_seq; live = true } in
  t.next_seq <- t.next_seq + 1;
  bucket_push (bucket_for (tier_for t fm.fm_match) fm.fm_priority) slot;
  t.size <- t.size + 1;
  Option.iter (kill t) replaced;
  Strict_index.replace t.index key slot

let clear t =
  t.wild.buckets <- [||];
  t.chains <- Array.make initial_chains [];
  t.n_chains <- 0;
  Strict_index.reset t.index;
  t.size <- 0

(* OF 1.0 Modify changes only the actions: the entry keeps its place in
   the install order and its counters. *)
let apply t fm =
  let modify slot = slot.entry.actions <- fm.fm_actions in
  match fm.command with
  | Add -> add t fm
  | Modify_strict -> (
    match Strict_index.find_opt t.index (fm.fm_priority, fm.fm_match) with
    | Some slot -> modify slot
    | None -> add t fm)
  | Modify -> (
    match subsumed t fm.fm_match with
    | [] -> add t fm
    | hits -> List.iter modify hits)
  | Delete ->
    if Ofmatch.is_any fm.fm_match then clear t
    else List.iter (kill t) (subsumed t fm.fm_match)
  | Delete_strict ->
    Option.iter (kill t) (Strict_index.find_opt t.index (fm.fm_priority, fm.fm_match))

let entries t =
  let acc = ref [] in
  iter_tiers t (fun tier -> iter_tier tier (fun slot -> acc := slot :: !acc));
  List.sort
    (fun a b ->
      if a.entry.priority <> b.entry.priority then Int.compare b.entry.priority a.entry.priority
      else Int.compare a.seq b.seq)
    !acc
  |> List.map (fun slot -> slot.entry)

let size t = t.size
let lookups t = t.lookups

let pp ppf t =
  List.iter
    (fun (e : entry) ->
      Fmt.pf ppf "prio=%-5d %a -> %a (pkts=%d)@." e.priority Ofmatch.pp e.ofmatch
        Action.pp_list e.actions e.packets)
    (entries t)
