(** Binary wire format for frames.

    Real Ethernet II / ARP / IPv4 / UDP encodings, including the IPv4
    header checksum and the UDP checksum over the pseudo-header. The
    simulation moves structured {!Ethernet.frame}s for speed, but every
    frame type is round-trippable through this codec, and the
    property-based tests assert it — keeping the models honest enough
    that a future port to a real wire is a drop-in. *)

type error =
  | Truncated of string  (** buffer too short; carries the field name *)
  | Bad_checksum of string  (** carries the layer name *)
  | Unsupported of string  (** e.g. unknown ethertype, IPv4 options *)
  | Malformed of string

val pp_error : Format.formatter -> error -> unit

val encode_frame : Ethernet.frame -> string
(** Serialises a frame (without FCS / preamble). *)

val decode_frame : string -> (Ethernet.frame, error) result
(** Parses a frame produced by {!encode_frame} (or any conforming
    encoder). Validates IPv4 and UDP checksums. *)

(** Low-level helpers, exposed for the protocol codecs in other
    libraries (BGP, BFD, OpenFlow messages). *)
module Buf : sig
  type t

  val create : unit -> t
  val u8 : t -> int -> unit
  val u16 : t -> int -> unit
  val u32 : t -> int -> unit
  (** Writes the low 32 bits, big-endian. *)

  val bytes : t -> string -> unit
  val length : t -> int
  val contents : t -> string
end

module Reader : sig
  type t

  val of_string : string -> t
  val pos : t -> int
  val remaining : t -> int
  val u8 : t -> (int, error) result
  val u16 : t -> (int, error) result
  val u32 : t -> (int, error) result
  (** The unsigned big-endian value, in [0, 2{^32} - 1]. *)

  val take : t -> int -> (string, error) result
  val rest : t -> string
end

val internet_checksum : string -> int
(** RFC 1071 ones'-complement checksum of a byte string (padded with a
    zero byte if of odd length). *)
