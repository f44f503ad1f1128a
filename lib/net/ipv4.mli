(** IPv4 addresses.

    Held as an immediate [int] carrying the unsigned 32-bit value, so
    an address never allocates and int order is address order. *)

type t [@@immediate]

val of_int32 : int32 -> t
(** Reads the bits as unsigned: [of_int32 (-1l)] is [255.255.255.255]. *)

val to_int32 : t -> int32

val of_int : int -> t
(** Keeps only the low 32 bits. *)

val to_int : t -> int
(** The unsigned value, in [0, 2{^32} - 1]. *)

val of_octets : int -> int -> int -> int -> t
(** [of_octets a b c d] is [a.b.c.d]. Each octet must be in [0, 255]. *)

val to_octets : t -> int * int * int * int

val of_string : string -> (t, string) result
(** Parses dotted-quad notation. *)

val of_string_exn : string -> t
(** @raise Invalid_argument on malformed input. *)

val to_string : t -> string

val any : t
(** [0.0.0.0] *)

val broadcast : t
(** [255.255.255.255] *)

val succ : t -> t
(** Next address, wrapping at [255.255.255.255]. *)

val add : t -> int -> t
(** [add a n] is the address [n] after [a] (unsigned, wrapping). *)

val diff : t -> t -> int
(** [diff a b] is the unsigned distance [a - b] interpreted in [int]. *)

val compare : t -> t -> int
(** Unsigned comparison: [0.0.0.1 < 128.0.0.0 < 255.255.255.255]. *)

val equal : t -> t -> bool

val hash : t -> int
(** [Int32.to_int (to_int32 a) land max_int]: bit 31 sign-extended,
    then masked non-negative. *)

val bit : t -> int -> bool
(** [bit a i] is bit [i] of [a], where bit 0 is the most significant.
    Requires [0 <= i < 32]. *)

val pp : Format.formatter -> t -> unit
