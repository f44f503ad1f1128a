(* Order statistics over host timings, and a growable sample buffer so a
   run can keep a million per-operation timings without a list cell and
   a boxed float each. *)

type samples = { mutable data : float array; mutable n : int }

let samples () = { data = Array.make 1024 0.0; n = 0 }

let add s x =
  if s.n = Array.length s.data then begin
    let d = Array.make (2 * s.n) 0.0 in
    Array.blit s.data 0 d 0 s.n;
    s.data <- d
  end;
  s.data.(s.n) <- x;
  s.n <- s.n + 1

let to_array s = Array.sub s.data 0 s.n
let length s = s.n

let sum a = Array.fold_left ( +. ) 0.0 a

(* Linear interpolation between closest ranks of a sorted array; [p] in
   0..100. *)
let percentile_sorted a p =
  let n = Array.length a in
  if n = 0 then nan
  else if n = 1 then a.(0)
  else
    let r = p /. 100.0 *. float_of_int (n - 1) in
    let lo = truncate r in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((r -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

let median a = percentile_sorted (sorted a) 50.0

(* The highest of p99.9, p99 and p90 that leaves at least ten samples
   beyond it; the maximum when there are too few samples for any of
   them. Returns the label with the value. *)
let tail a =
  let a = sorted a in
  let n = float_of_int (Array.length a) in
  let rec pick = function
    | [] -> ("max", percentile_sorted a 100.0)
    | (label, p) :: rest ->
      if n *. (1.0 -. (p /. 100.0)) >= 10.0 then (label, percentile_sorted a p)
      else pick rest
  in
  pick [("p99.9", 99.9); ("p99", 99.0); ("p90", 90.0)]

(* [p]-th percentile of samples [lo, hi) of a buffer. *)
let percentile_range s ~lo ~hi p =
  percentile_sorted (sorted (Array.sub s.data lo (hi - lo))) p
