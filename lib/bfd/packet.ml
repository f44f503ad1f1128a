type state = Admin_down | Down | Init | Up

let pp_state ppf s =
  Fmt.string ppf
    (match s with Admin_down -> "AdminDown" | Down -> "Down" | Init -> "Init" | Up -> "Up")

let state_to_int = function Admin_down -> 0 | Down -> 1 | Init -> 2 | Up -> 3

let state_of_int = function
  | 0 -> Some Admin_down
  | 1 -> Some Down
  | 2 -> Some Init
  | 3 -> Some Up
  | _ -> None

type diagnostic =
  | No_diagnostic
  | Control_detection_time_expired
  | Neighbor_signaled_down
  | Administratively_down

let pp_diagnostic ppf d =
  Fmt.string ppf
    (match d with
    | No_diagnostic -> "none"
    | Control_detection_time_expired -> "detection time expired"
    | Neighbor_signaled_down -> "neighbor signaled down"
    | Administratively_down -> "administratively down")

let diag_to_int = function
  | No_diagnostic -> 0
  | Control_detection_time_expired -> 1
  | Neighbor_signaled_down -> 3
  | Administratively_down -> 7

let diag_of_int = function
  | 0 -> Some No_diagnostic
  | 1 -> Some Control_detection_time_expired
  | 3 -> Some Neighbor_signaled_down
  | 7 -> Some Administratively_down
  | _ -> None

type t = {
  state : state;
  diag : diagnostic;
  detect_mult : int;
  my_discriminator : int;
  your_discriminator : int;
  desired_min_tx_us : int;
  required_min_rx_us : int;
}

let udp_port = 3784

let encode t =
  let buf = Net.Wire.Buf.create () in
  (* vers(3)=1 | diag(5) *)
  Net.Wire.Buf.u8 buf ((1 lsl 5) lor diag_to_int t.diag);
  (* sta(2) | P F C A D M(6)=0 *)
  Net.Wire.Buf.u8 buf (state_to_int t.state lsl 6);
  Net.Wire.Buf.u8 buf t.detect_mult;
  Net.Wire.Buf.u8 buf 24 (* length *);
  Net.Wire.Buf.u32 buf t.my_discriminator;
  Net.Wire.Buf.u32 buf t.your_discriminator;
  Net.Wire.Buf.u32 buf t.desired_min_tx_us;
  Net.Wire.Buf.u32 buf t.required_min_rx_us;
  Net.Wire.Buf.u32 buf 0 (* required min echo rx *);
  Net.Wire.Buf.contents buf

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let decode s =
  let r = Net.Wire.Reader.of_string s in
  let* vers_diag = Net.Wire.Reader.u8 r in
  if vers_diag lsr 5 <> 1 then Error (Net.Wire.Malformed "bfd version")
  else
    let* diag =
      match diag_of_int (vers_diag land 0x1F) with
      | Some d -> Ok d
      | None -> Error (Net.Wire.Unsupported "bfd diagnostic")
    in
    let* sta_flags = Net.Wire.Reader.u8 r in
    let* state =
      match state_of_int (sta_flags lsr 6) with
      | Some s -> Ok s
      | None -> Error (Net.Wire.Malformed "bfd state")
    in
    let* detect_mult = Net.Wire.Reader.u8 r in
    if detect_mult = 0 then Error (Net.Wire.Malformed "bfd detect mult")
    else
      let* length = Net.Wire.Reader.u8 r in
      if length <> 24 || String.length s < 24 then
        Error (Net.Wire.Malformed "bfd length")
      else
        let* my_discriminator = Net.Wire.Reader.u32 r in
        let* your_discriminator = Net.Wire.Reader.u32 r in
        let* tx = Net.Wire.Reader.u32 r in
        let* rx = Net.Wire.Reader.u32 r in
        let* _echo = Net.Wire.Reader.u32 r in
        if my_discriminator = 0 then
          Error (Net.Wire.Malformed "bfd my discriminator")
        else
          Ok
            {
              state;
              diag;
              detect_mult;
              my_discriminator;
              your_discriminator;
              desired_min_tx_us = tx;
              required_min_rx_us = rx;
            }

let equal a b = a = b

let pp ppf t =
  Fmt.pf ppf "bfd %a diag=%a mult=%d my=%d your=%d tx=%dus rx=%dus" pp_state
    t.state pp_diagnostic t.diag t.detect_mult t.my_discriminator
    t.your_discriminator t.desired_min_tx_us t.required_min_rx_us
