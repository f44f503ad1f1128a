(* Splitmix64 (Steele, Lea, Flood 2014): tiny state, passes BigCrush for
   the purposes of workload generation, trivially reproducible.

   The state is 8 bytes, not an [int64] field (which would be boxed),
   and the step is inlined into every draw, so the arithmetic stays
   unboxed: [int] and [bool] allocate nothing, [float] only its boxed
   result. *)

type t = Bytes.t

let gamma = 0x9E3779B97F4A7C15L

let create ~seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 seed;
  t

let copy = Bytes.copy

let[@inline] next_raw t =
  let z = Int64.add (Bytes.get_int64_le t 0) gamma in
  Bytes.set_int64_le t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int64 = next_raw

let split t = create ~seed:(next_raw t)

let int t bound =
  assert (bound > 0);
  let mask = Int64.shift_right_logical (next_raw t) 1 in
  Int64.to_int (Int64.rem mask (Int64.of_int bound))

let float t bound =
  (* 53 high-quality bits -> [0, 1) *)
  let bits = Int64.shift_right_logical (next_raw t) 11 in
  Int64.to_float bits /. 9007199254740992.0 *. bound

let bool t = Int64.logand (next_raw t) 1L = 1L

let pick t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
