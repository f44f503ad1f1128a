(** 48-bit Ethernet MAC addresses, held in the low 48 bits of an
    immediate [int], so a MAC never allocates. *)

type t [@@immediate]

val of_int64 : int64 -> t
(** Keeps only the low 48 bits. *)

val to_int64 : t -> int64

val of_int : int -> t
(** Keeps only the low 48 bits. *)

val to_int : t -> int
(** The 48-bit value, in [0, 2{^48} - 1]. *)

val of_bytes : int array -> t
(** [of_bytes [|b0; ...; b5|]] with [b0] the most significant byte.
    Requires exactly 6 values in [0, 255]. *)

val to_bytes : t -> int array

val of_string : string -> (t, string) result
(** Parses colon-separated hex, e.g. ["00:ff:00:00:00:01"]. *)

val of_string_exn : string -> t

val to_string : t -> string

val broadcast : t
(** [ff:ff:ff:ff:ff:ff] *)

val zero : t

val is_broadcast : t -> bool

val compare : t -> t -> int
val equal : t -> t -> bool

val hash : t -> int
(** [Int64.to_int (to_int64 m) land max_int], i.e. the 48-bit value. *)

val pp : Format.formatter -> t -> unit
