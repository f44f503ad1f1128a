(** IPv4 prefixes in CIDR notation.

    Prefixes are kept in canonical form: host bits below the mask are
    always zero, so structural equality coincides with semantic
    equality. A prefix is one immediate [int], [(network lsl 6) lor
    length], so it never allocates and int order is {!compare}. *)

type t [@@immediate]

val make : Ipv4.t -> int -> t
(** [make addr len] is [addr/len] with host bits cleared.
    Requires [0 <= len <= 32]. *)

val v : string -> t
(** [v "1.0.0.0/24"] — parsing shorthand for literals in tests and
    examples. @raise Invalid_argument on malformed input. *)

val of_string : string -> (t, string) result
val to_string : t -> string

val network : t -> Ipv4.t
(** The (canonicalised) network address. *)

val length : t -> int
(** The mask length. *)

val mem : Ipv4.t -> t -> bool
(** [mem a p] iff address [a] lies inside [p]. *)

val subset : t -> t -> bool
(** [subset inner outer] iff every address of [inner] is in [outer]. *)

val first : t -> Ipv4.t
(** Lowest address of the prefix (= [network]). *)

val last : t -> Ipv4.t
(** Highest address of the prefix. *)

val size : t -> int
(** Number of addresses covered. [size (v "0.0.0.0/0")] does not fit in
    32 bits and saturates to [max_int]. *)

val nth : t -> int -> Ipv4.t
(** [nth p i] is the [i]-th address of [p]. Requires [0 <= i < size p]. *)

val default_route : t
(** [0.0.0.0/0] *)

val compare : t -> t -> int
(** Total order: by network address (unsigned), then by length —
    shorter (less specific) first. *)

val equal : t -> t -> bool
val hash : t -> int

val pp : Format.formatter -> t -> unit
