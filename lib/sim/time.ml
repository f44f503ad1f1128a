(* An immediate int of nanoseconds: 63 bits cover ±146 years, and an
   int never boxes, so times returned across the -opaque module
   boundary of the dev profile allocate nothing. *)
type t = int

let () = assert (Sys.int_size >= 63)

let zero = 0

let of_ns = Int64.to_int
let to_ns = Int64.of_int
let of_int ns = ns
let to_int t = t

let of_us n = n * 1_000
let of_ms n = n * 1_000_000

let of_sec s = Float.to_int (Float.round (s *. 1e9))
let to_sec t = Float.of_int t /. 1e9
let to_ms t = Float.of_int t /. 1e6
let to_us t = Float.of_int t /. 1e3

let add = Int.add
let sub = Int.sub
let mul t k = t * k
let div t k = t / k

let compare = Int.compare
let equal = Int.equal
let ( < ) (a : t) b = Stdlib.( < ) a b
let ( <= ) (a : t) b = Stdlib.( <= ) a b
let ( > ) (a : t) b = Stdlib.( > ) a b
let ( >= ) (a : t) b = Stdlib.( >= ) a b

let min = Int.min
let max = Int.max

let is_negative t = t < zero

let next_multiple ~grid t =
  assert (grid > zero && t >= zero);
  let m = t / grid * grid in
  if m = t then m else m + grid

let prev_multiple ~grid t =
  assert (grid > zero && t >= zero);
  t / grid * grid

let pp ppf t =
  let abs = Int.abs t in
  if abs < 1_000 then Fmt.pf ppf "%dns" t
  else if abs < 1_000_000 then Fmt.pf ppf "%.3fus" (to_us t)
  else if abs < 1_000_000_000 then Fmt.pf ppf "%.3fms" (to_ms t)
  else Fmt.pf ppf "%.6fs" (to_sec t)

let to_string t = Fmt.str "%a" pp t
