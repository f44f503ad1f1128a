(* Stride-compressed (16/8/8) multibit LPM table.

   The per-bit trie in Lpm resolves a lookup with up to 32 dependent
   pointer loads and allocates a tuple per hit. Here a lookup is at
   most three array indexings: a 65536-slot root covering bits 0-15,
   then optional 256-slot nodes for bits 16-23 and 24-31, DIR-24-8
   style. Prefixes are expanded into every slot their range covers at
   insert time, so the lookup itself does no masking or prefix math.

   Each level stores only prefixes in its exclusive length band — root
   /0-/16, level-1 /17-/24, level-2 /25-/32 — and within a slot the
   longest covering prefix wins (shorter ones are shadowed at insert
   time). That makes "deepest set slot wins" exactly longest-prefix
   match, with shallower levels as fallback.

   Value slots are ['a option] with the [Some] allocated once per
   insert and shared across the expanded range, so [lookup_value]
   returns a stored immutable and allocates nothing. A parallel
   [Bytes] of per-slot prefix lengths (0xff = empty) drives the
   overwrite rule on insert and tells a removal which slots it owns; a
   plain [Lpm] trie keeps the authoritative binding set for
   [find_exact]/[iter]/removal-replacement queries off the hot path.

   Interior nodes live in a pool indexed by int (0 = the never-read
   sentinel, standing for "no child"), with a free list so removal
   churn recycles rather than leaks. *)

type 'a node = {
  values : 'a option array; (* 256 slots *)
  plens : Bytes.t;          (* per-slot owning prefix length; 0xff = empty *)
  children : int array;     (* pool indices; 0 = none *)
  mutable occupied : int;   (* set slots + live children; 0 = freeable *)
}

type 'a t = {
  trie : 'a Lpm.t; (* authoritative bindings; replacement queries *)
  root_values : 'a option array; (* 65536 *)
  root_plens : Bytes.t;
  root_children : int array;
  mutable pool : 'a node array;
  mutable pool_len : int;
  mutable free : int list;
}

let root_slots = 65536
let empty_plen = 0xff

let sentinel () =
  { values = [||]; plens = Bytes.empty; children = [||]; occupied = 0 }

let create () =
  {
    trie = Lpm.create ();
    root_values = Array.make root_slots None;
    root_plens = Bytes.make root_slots '\xff';
    root_children = Array.make root_slots 0;
    pool = [| sentinel () |];
    pool_len = 1;
    free = [];
  }

let new_node () =
  {
    values = Array.make 256 None;
    plens = Bytes.make 256 '\xff';
    children = Array.make 256 0;
    occupied = 0;
  }

(* A recycled node was emptied slot by slot before it was freed, so it
   comes back clean; only pool growth allocates. *)
let alloc_node t =
  match t.free with
  | i :: rest ->
    t.free <- rest;
    i
  | [] ->
    if t.pool_len = Array.length t.pool then begin
      let grown = Array.make (2 * Array.length t.pool) t.pool.(0) in
      Array.blit t.pool 0 grown 0 t.pool_len;
      t.pool <- grown
    end;
    let i = t.pool_len in
    t.pool.(i) <- new_node ();
    t.pool_len <- t.pool_len + 1;
    i

(* Write [sv] into every slot of [base, base+count) not owned by a
   longer prefix. An equal stored length can only be this same prefix
   re-bound, so overwrite on <=. *)
let set_root_range t ~base ~count ~len sv =
  for i = base to base + count - 1 do
    let cur = Bytes.get_uint8 t.root_plens i in
    if cur = empty_plen || cur <= len then begin
      t.root_values.(i) <- sv;
      Bytes.set_uint8 t.root_plens i len
    end
  done

let set_node_range n ~base ~count ~len sv =
  for i = base to base + count - 1 do
    let cur = Bytes.get_uint8 n.plens i in
    if cur = empty_plen || cur <= len then begin
      if cur = empty_plen then n.occupied <- n.occupied + 1;
      n.values.(i) <- sv;
      Bytes.set_uint8 n.plens i len
    end
  done

let ensure_root_child t ri =
  match t.root_children.(ri) with
  | 0 ->
    let i = alloc_node t in
    t.root_children.(ri) <- i;
    t.pool.(i)
  | c -> t.pool.(c)

let ensure_child t n i1 =
  match n.children.(i1) with
  | 0 ->
    let i = alloc_node t in
    n.children.(i1) <- i;
    n.occupied <- n.occupied + 1;
    t.pool.(i)
  | c -> t.pool.(c)

let insert t prefix v =
  Lpm.insert t.trie prefix v;
  let len = Prefix.length prefix in
  let net = Ipv4.to_int (Prefix.network prefix) in
  let sv = Some v in
  if len <= 16 then
    set_root_range t ~base:(net lsr 16) ~count:(1 lsl (16 - len)) ~len sv
  else begin
    let n1 = ensure_root_child t (net lsr 16) in
    if len <= 24 then
      set_node_range n1
        ~base:((net lsr 8) land 0xff)
        ~count:(1 lsl (24 - len))
        ~len sv
    else begin
      let n2 = ensure_child t n1 ((net lsr 8) land 0xff) in
      set_node_range n2 ~base:(net land 0xff) ~count:(1 lsl (32 - len)) ~len sv
    end
  end

(* Removal: vacate every slot the prefix owned (stored length = its
   length — two equal-length prefixes never overlap, so ownership is
   unambiguous), then refill each from the next-best prefix in the
   level's length band. The trie answers that query after the binding
   is gone, so the replacement is exact. *)
let refill_root t i =
  let addr = Ipv4.of_int (i lsl 16) in
  match Lpm.best_in_range t.trie addr ~lo:0 ~hi:16 with
  | Some (plen, v) ->
    t.root_values.(i) <- Some v;
    Bytes.set_uint8 t.root_plens i plen
  | None ->
    t.root_values.(i) <- None;
    Bytes.set_uint8 t.root_plens i empty_plen

let refill_node t n ~slot_addr ~lo ~hi i =
  let addr = Ipv4.of_int slot_addr in
  match Lpm.best_in_range t.trie addr ~lo ~hi with
  | Some (plen, v) ->
    n.values.(i) <- Some v;
    Bytes.set_uint8 n.plens i plen
  | None ->
    n.values.(i) <- None;
    Bytes.set_uint8 n.plens i empty_plen;
    n.occupied <- n.occupied - 1

let free_node t idx = t.free <- idx :: t.free

let remove t prefix =
  if Option.is_some (Lpm.find_exact t.trie prefix) then begin
    Lpm.remove t.trie prefix;
    let len = Prefix.length prefix in
    let net = Ipv4.to_int (Prefix.network prefix) in
    if len <= 16 then begin
      let base = net lsr 16 in
      for i = base to base + (1 lsl (16 - len)) - 1 do
        if Bytes.get_uint8 t.root_plens i = len then refill_root t i
      done
    end
    else begin
      let ri = net lsr 16 in
      match t.root_children.(ri) with
      | 0 -> () (* insert created the node; unreachable for a live binding *)
      | c1 ->
        let n1 = t.pool.(c1) in
        (if len <= 24 then begin
           let base = (net lsr 8) land 0xff in
           for i = base to base + (1 lsl (24 - len)) - 1 do
             if Bytes.get_uint8 n1.plens i = len then
               refill_node t n1
                 ~slot_addr:((ri lsl 16) lor (i lsl 8))
                 ~lo:17 ~hi:24 i
           done
         end
         else begin
           let i1 = (net lsr 8) land 0xff in
           match n1.children.(i1) with
           | 0 -> ()
           | c2 ->
             let n2 = t.pool.(c2) in
             let base = net land 0xff in
             for i = base to base + (1 lsl (32 - len)) - 1 do
               if Bytes.get_uint8 n2.plens i = len then
                 refill_node t n2
                   ~slot_addr:((ri lsl 16) lor (i1 lsl 8) lor i)
                   ~lo:25 ~hi:32 i
             done;
             if n2.occupied = 0 then begin
               n1.children.(i1) <- 0;
               n1.occupied <- n1.occupied - 1;
               free_node t c2
             end
         end);
        if n1.occupied = 0 then begin
          t.root_children.(ri) <- 0;
          free_node t c1
        end
    end
  end

(* The hot path: at most three dependent array reads, deepest set slot
   wins, and the returned ['a option] is the one stored at insert time
   — no allocation, no closure, no prefix reconstruction. Indices are
   masked to their level's width, so unsafe_get cannot escape. *)
let[@lint.zero_alloc] lookup_value t addr =
  let a = Ipv4.to_int addr in
  let i0 = a lsr 16 in
  let c1 = Array.unsafe_get t.root_children i0 in
  if c1 = 0 then Array.unsafe_get t.root_values i0
  else begin
    let n1 = Array.unsafe_get t.pool c1 in
    let i1 = (a lsr 8) land 0xff in
    let c2 = Array.unsafe_get n1.children i1 in
    if c2 = 0 then
      match Array.unsafe_get n1.values i1 with
      | None -> Array.unsafe_get t.root_values i0
      | some -> some
    else begin
      let n2 = Array.unsafe_get t.pool c2 in
      let i2 = a land 0xff in
      match Array.unsafe_get n2.values i2 with
      | None -> (
        match Array.unsafe_get n1.values i1 with
        | None -> Array.unsafe_get t.root_values i0
        | some -> some)
      | some -> some
    end
  end

(* Compatibility lookup reconstructing the winning prefix from the
   stored per-slot length — convenient for tests and callers that need
   the match, not for the per-packet path. *)
let lookup t addr =
  let a = Ipv4.to_int addr in
  let i0 = a lsr 16 in
  let best_plen = ref empty_plen in
  let best_v = ref None in
  let take plens values i =
    let l = Bytes.get_uint8 plens i in
    if l <> empty_plen then begin
      best_plen := l;
      best_v := values.(i)
    end
  in
  take t.root_plens t.root_values i0;
  (match t.root_children.(i0) with
  | 0 -> ()
  | c1 ->
    let n1 = t.pool.(c1) in
    let i1 = (a lsr 8) land 0xff in
    take n1.plens n1.values i1;
    (match n1.children.(i1) with
    | 0 -> ()
    | c2 ->
      let n2 = t.pool.(c2) in
      take n2.plens n2.values (a land 0xff)));
  match !best_v with
  | None -> None
  | Some v -> Some (Prefix.make addr !best_plen, v)

let[@lint.zero_alloc] lookup_batch t addrs out =
  let n = Array.length addrs in
  if Array.length out < n then
    invalid_arg "Flat_fib.lookup_batch: output array shorter than input";
  for k = 0 to n - 1 do
    Array.unsafe_set out k (lookup_value t (Array.unsafe_get addrs k))
  done

let find_exact t prefix = Lpm.find_exact t.trie prefix
let iter t f = Lpm.iter t.trie f
let fold t ~init ~f = Lpm.fold t.trie ~init ~f
let to_list t = Lpm.to_list t.trie
let cardinal t = Lpm.cardinal t.trie
let is_empty t = Lpm.is_empty t.trie
let nodes t = t.pool_len - 1 - List.length t.free

let clear t =
  Lpm.clear t.trie;
  Array.fill t.root_values 0 root_slots None;
  Bytes.fill t.root_plens 0 root_slots '\xff';
  Array.fill t.root_children 0 root_slots 0;
  t.pool <- [| t.pool.(0) |];
  t.pool_len <- 1;
  t.free <- []
