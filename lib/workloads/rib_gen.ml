type entry = {
  prefix : Net.Prefix.t;
  as_path : Bgp.Asn.t list;
  med : int option;
}

(* Cumulative prefix-length distribution, loosely matching the public
   IPv4 table (CIDR report): mostly /24s, a thin tail of shorter
   prefixes. The tail is capped at /16 so that 600 k sequentially
   allocated entries fit inside the 32-bit space with room to spare. *)
let length_table =
  [|
    (24, 0.55); (23, 0.65); (22, 0.77); (21, 0.84); (20, 0.90);
    (19, 0.95); (18, 0.97); (17, 0.98); (16, 1.00);
  |]
[@@lint.domain_local
  "constant cumulative-distribution table, written nowhere; array literal only\
  \ for cheap indexed scans"]

(* Denser mix for data-plane scale benchmarks: the long tail goes down
   to /28 and stops at /18, averaging ~620 addresses per entry, so the
   sequential allocator fits two million entries where the RIB-shaped
   mix above exhausts the space around 600 k. *)
let dense_length_table =
  [|
    (24, 0.50); (25, 0.62); (26, 0.72); (27, 0.78); (28, 0.82);
    (23, 0.88); (22, 0.93); (21, 0.96); (20, 0.98); (19, 0.99); (18, 1.00);
  |]
[@@lint.domain_local
  "constant cumulative-distribution table, written nowhere; array literal only\
  \ for cheap indexed scans"]

(* The full-Internet mix, cumulative, matching the published IPv4 table
   shape (CIDR report / route-collector snapshots, ~1M prefixes):
   ~59.5 % /24, a /22-/23 deaggregation band, and a thin aggregate tail
   reaching /8. Leaves (>= /17, ~98 % of mass) are carved sequentially;
   aggregates (<= /16) are emitted as *covering* prefixes over the leaf
   region without consuming address space, reproducing the
   aggregate+more-specific pairs of the real table. *)
let internet_length_table =
  [|
    (24, 0.595); (23, 0.700); (22, 0.825); (21, 0.880); (20, 0.925);
    (19, 0.953); (18, 0.970); (17, 0.981); (16, 0.9945); (15, 0.9965);
    (14, 0.9980); (13, 0.9990); (12, 0.9995); (11, 0.9997); (10, 0.9998);
    (9, 0.9999); (8, 1.00);
  |]
[@@lint.domain_local
  "constant cumulative-distribution table, written nowhere; array literal only\
  \ for cheap indexed scans"]

(* AS-path hop-count mix (path length without prepending), cumulative.
   Route-collector feeds put the mode at 4 hops and the mean near 4.4;
   the tail past 7 hops is thin. *)
let as_path_length_table =
  [|
    (1, 0.005); (2, 0.085); (3, 0.305); (4, 0.615); (5, 0.815);
    (6, 0.915); (7, 0.965); (8, 0.985); (9, 0.995); (10, 1.00);
  |]
[@@lint.domain_local
  "constant cumulative-distribution table, written nowhere; array literal only\
  \ for cheap indexed scans"]

let sample_length table rng =
  let x = Sim.Rng.float rng 1.0 in
  let rec pick i =
    if i >= Array.length table - 1 then fst table.(i)
    else if x < snd table.(i) then fst table.(i)
    else pick (i + 1)
  in
  pick 0

let sample_as_path rng =
  let len = 1 + Sim.Rng.int rng 5 in
  List.init len (fun _ -> Bgp.Asn.of_int (3000 + Sim.Rng.int rng 60000))

let sample_internet_as_path rng =
  let len = sample_length as_path_length_table rng in
  List.init len (fun _ -> Bgp.Asn.of_int (3000 + Sim.Rng.int rng 60000))

(* Addresses are carved upward from 1.0.0.0 as unsigned ints. *)
let first_network = Net.Ipv4.to_int (Net.Ipv4.of_octets 1 0 0 0)

(* [addr] rounded up to the prefix's natural boundary ([size] is a power
   of two). *)
let align_up addr size = (addr + size - 1) land lnot (size - 1)

let generate_with ~table ~seed ~count =
  let rng = Sim.Rng.create ~seed in
  let cursor = ref first_network in
  Array.init count (fun _ ->
      let len = sample_length table rng in
      let size = 1 lsl (32 - len) in
      let aligned = align_up !cursor size in
      cursor := aligned + size;
      if !cursor > 0xFFFF_0000 then failwith "Rib_gen.generate: address space exhausted";
      let prefix = Net.Prefix.make (Net.Ipv4.of_int aligned) len in
      let med = if Sim.Rng.int rng 10 = 0 then Some (Sim.Rng.int rng 100) else None in
      { prefix; as_path = sample_as_path rng; med })

let generate ~seed ~count =
  if count < 0 || count > 600_000 then invalid_arg "Rib_gen.generate: count";
  generate_with ~table:length_table ~seed ~count

let generate_dense ~seed ~count =
  if count < 0 || count > 2_000_000 then
    invalid_arg "Rib_gen.generate_dense: count";
  generate_with ~table:dense_length_table ~seed ~count

(* Full-Internet tables. Two allocation regimes share one cursor:
   leaves (>= /17) are carved sequentially exactly like [generate_with];
   aggregates (<= /16) take the cursor's aligned enclosing block of the
   sampled length *without advancing it*, so they cover the leaves being
   carved there — or, when that block was already emitted, probe forward
   block by block to the next free one (still covering future leaves).
   Uniqueness: leaves never collide (disjoint spans), aggregates are
   deduplicated per (length, network), and a leaf never equals an
   aggregate (different mask lengths). *)
let generate_internet ~seed ~count =
  if count < 0 || count > 1_200_000 then
    invalid_arg "Rib_gen.generate_internet: count";
  let rng = Sim.Rng.create ~seed in
  let cursor = ref first_network in
  let aggregates = Hashtbl.create 4096 in
  Array.init count (fun _ ->
      let len = sample_length internet_length_table rng in
      let size = 1 lsl (32 - len) in
      let network =
        if len >= 17 then begin
          let aligned = align_up !cursor size in
          cursor := aligned + size;
          aligned
        end
        else begin
          (* Aligned block containing (or following) the leaf cursor. *)
          let block = ref (!cursor / size * size) in
          while Hashtbl.mem aggregates (len, !block) do
            block := !block + size
          done;
          Hashtbl.replace aggregates (len, !block) ();
          !block
        end
      in
      if !cursor > 0xE000_0000 then
        failwith "Rib_gen.generate_internet: address space exhausted";
      let prefix = Net.Prefix.make (Net.Ipv4.of_int network) len in
      let med = if Sim.Rng.int rng 10 = 0 then Some (Sim.Rng.int rng 100) else None in
      { prefix; as_path = sample_internet_as_path rng; med })

(* --- skewed peer views ------------------------------------------------- *)

(* Table overlap across peers is heavily skewed in practice: one or two
   transit feeds carry (nearly) the full table, the rest export customer
   cones orders of magnitude smaller. Peer 0 is the full feed; peer i
   covers ~100/(i+1)^2 percent with a 1 % floor, so a 100-peer set
   carries ~2.5 full-table equivalents in total. *)
let view_share ~peers peer =
  if peer < 0 || peer >= peers then invalid_arg "Rib_gen.view_share: peer";
  if peer = 0 then 100
  else max 1 (100 / ((peer + 1) * (peer + 1)))

(* Deterministic membership without RNG state: a fixed integer mix of
   (peer, index), so any slice of any peer's view can be reproduced
   independently of evaluation order. *)
let in_view ~peer ~share_pct index =
  share_pct >= 100
  || begin
    let h = (index * 0x9E3779B1) lxor ((peer + 1) * 0x85EBCA77) in
    let h = (h lxor (h lsr 13)) * 0xC2B2AE35 in
    ((h lsr 7) land 0xFFFFFF) mod 100 < share_pct
  end

let to_updates entries ~speaker_asn ~next_hop =
  Array.fold_right
    (fun e acc ->
      let attrs =
        Bgp.Attributes.make
          ~as_path:[Bgp.Attributes.Seq (speaker_asn :: e.as_path)]
          ?med:e.med ~next_hop ()
      in
      { Bgp.Message.withdrawn = []; attrs = Some attrs; nlri = [e.prefix] } :: acc)
    entries []

let pp_entry ppf e =
  Fmt.pf ppf "%a path=[%a]%a" Net.Prefix.pp e.prefix
    Fmt.(list ~sep:sp Bgp.Asn.pp)
    e.as_path
    Fmt.(option (fun ppf m -> Fmt.pf ppf " med=%d" m))
    e.med
