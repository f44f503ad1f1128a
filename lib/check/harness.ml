type ('a, 's) matrix = {
  seeds : int64 list;
  generate : int64 -> 'a;
  execute : 'a -> string list;
  steps : 'a -> 's list;
  rebuild : 'a -> 's list -> 'a;
  pp : Format.formatter -> 'a -> unit;
  reproduce : int -> 'a -> string;
}

type 'a failure = {
  schedule : 'a;
  shrunk : 'a;
  violations : string list;
  reproduce : string;
}

let consecutive seed n = List.init n (fun i -> Int64.add seed (Int64.of_int i))

(* Remove [size] steps starting at index [i]. *)
let without steps i size = List.filteri (fun j _ -> j < i || j >= i + size) steps

(* Greedy ddmin: sweep chunk removals at halving granularity; at size 1,
   keep sweeping until a full pass removes nothing. After a removal the
   same index holds the next chunk. Every kept candidate is strictly
   shorter, so shrinking terminates. *)
let shrink ~steps ~rebuild ~execute x =
  let rec sweep cur vs ~size ~removed i =
    let s = steps cur in
    if i >= List.length s then
      if size > 1 then sweep cur vs ~size:(size / 2) ~removed:false 0
      else if removed then sweep cur vs ~size ~removed:false 0
      else (cur, vs)
    else
      let cand = rebuild cur (without s i size) in
      match execute cand with
      | [] -> sweep cur vs ~size ~removed (i + size)
      | vs -> sweep cand vs ~size ~removed:true i
  in
  match execute x with
  | [] -> (x, [])
  | vs -> sweep x vs ~size:(max 1 (List.length (steps x) / 2)) ~removed:false 0

let run ?(progress = ignore) m =
  let rec go i = function
    | [] -> None
    | seed :: rest -> (
      progress i;
      let schedule = m.generate seed in
      match shrink ~steps:m.steps ~rebuild:m.rebuild ~execute:m.execute schedule with
      | _, [] -> go (i + 1) rest
      | shrunk, violations ->
        Some { schedule; shrunk; violations; reproduce = m.reproduce i schedule })
  in
  go 0 m.seeds

let pp_failure pp ppf f =
  Fmt.pf ppf "violations:@.";
  List.iter (fun v -> Fmt.pf ppf "  - %s@." v) f.violations;
  Fmt.pf ppf "original %a" pp f.schedule;
  Fmt.pf ppf "shrunk to %a" pp f.shrunk;
  Fmt.pf ppf "reproduce: %s@." f.reproduce
