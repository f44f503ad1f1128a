(* The 48 address bits in an immediate int; bits 48 and up are always
   zero. *)
type t = int

let mask48 = 0xFFFF_FFFF_FFFF

let of_int64 x = Int64.to_int x land mask48
let to_int64 = Int64.of_int
let of_int x = x land mask48
let to_int x = x

let of_bytes bytes =
  if Array.length bytes <> 6 then invalid_arg "Mac.of_bytes: need 6 bytes";
  Array.fold_left
    (fun acc b ->
      if b < 0 || b > 255 then invalid_arg "Mac.of_bytes: byte out of range";
      (acc lsl 8) lor b)
    0 bytes

let to_bytes t = Array.init 6 (fun i -> (t lsr ((5 - i) * 8)) land 0xFF)

let of_string s =
  let fail () = Error (Printf.sprintf "invalid MAC address %S" s) in
  match String.split_on_char ':' s with
  | [_; _; _; _; _; _] as parts ->
    let parse_byte p =
      if String.length p = 0 || String.length p > 2 then None
      else
        match int_of_string_opt ("0x" ^ p) with
        | Some v when v >= 0 && v <= 255 -> Some v
        | Some _ | None -> None
    in
    let rec build acc = function
      | [] -> Some acc
      | p :: rest ->
        (match parse_byte p with
        | Some b -> build ((acc lsl 8) lor b) rest
        | None -> None)
    in
    (match build 0 parts with Some v -> Ok v | None -> fail ())
  | _ -> fail ()

let of_string_exn s =
  match of_string s with Ok t -> t | Error msg -> invalid_arg msg

let to_string t =
  let b = to_bytes t in
  Printf.sprintf "%02x:%02x:%02x:%02x:%02x:%02x" b.(0) b.(1) b.(2) b.(3) b.(4) b.(5)

let broadcast = mask48
let zero = 0

let is_broadcast t = t = broadcast

let compare = Int.compare
let equal = Int.equal

(* The hash of the former int64 representation, [Int64.to_int m land
   max_int], which is [m] itself for a 48-bit value. *)
let hash t = t

let pp ppf t = Format.pp_print_string ppf (to_string t)
