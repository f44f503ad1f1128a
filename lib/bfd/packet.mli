(** BFD control packets (RFC 5880 §4.1).

    The mandatory section only — authentication is out of scope. The
    codec produces the real 24-byte wire layout so packets can ride UDP
    port 3784 through the simulated data plane. *)

type state = Admin_down | Down | Init | Up

val pp_state : Format.formatter -> state -> unit
val state_to_int : state -> int

type diagnostic =
  | No_diagnostic
  | Control_detection_time_expired
  | Neighbor_signaled_down
  | Administratively_down

val pp_diagnostic : Format.formatter -> diagnostic -> unit

type t = {
  state : state;
  diag : diagnostic;
  detect_mult : int;
  my_discriminator : int;  (** unsigned 32-bit, as on the wire *)
  your_discriminator : int;  (** 0 until learned *)
  desired_min_tx_us : int;  (** microseconds, as on the wire *)
  required_min_rx_us : int;
}

val encode : t -> string
(** 24-byte control packet. *)

val decode : string -> (t, Net.Wire.error) result

val udp_port : int
(** 3784, single-hop BFD. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
