(** Simulated time.

    Time is an absolute instant measured in integer nanoseconds since the
    start of the simulation. Durations use the same representation; the
    arithmetic functions below are shared by both readings. Nanosecond
    integer arithmetic keeps every experiment bit-for-bit deterministic,
    which the paper's replica-redundancy argument (§3) relies on. *)

type t [@@immediate]
(** An instant (or duration) in nanoseconds, held as an immediate
    [int] (63 bits), so a time never allocates. *)

val zero : t

val of_ns : int64 -> t
val to_ns : t -> int64

val of_int : int -> t
(** [of_int n] is [n] nanoseconds. *)

val to_int : t -> int
(** [to_int t] is [t] in nanoseconds. *)

val of_us : int -> t
(** [of_us n] is [n] microseconds. *)

val of_ms : int -> t
(** [of_ms n] is [n] milliseconds. *)

val of_sec : float -> t
(** [of_sec s] is [s] seconds, rounded to the nearest nanosecond. *)

val to_sec : t -> float
(** [to_sec t] is [t] expressed in seconds. *)

val to_ms : t -> float
(** [to_ms t] is [t] expressed in milliseconds. *)

val to_us : t -> float
(** [to_us t] is [t] expressed in microseconds. *)

val add : t -> t -> t
val sub : t -> t -> t
(** [sub a b] is [a - b]. Negative results are allowed (durations). *)

val mul : t -> int -> t
val div : t -> int -> t

val compare : t -> t -> int
val equal : t -> t -> bool
val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool

val min : t -> t -> t
val max : t -> t -> t

val is_negative : t -> bool

val next_multiple : grid:t -> t -> t
(** [next_multiple ~grid t] is the smallest multiple of [grid] that is
    [>= t]. Used to align probe deliveries to the traffic source's send
    grid (the FPGA's 70 µs inter-packet interval). Requires [grid > zero]
    and [t >= zero]. *)

val prev_multiple : grid:t -> t -> t
(** [prev_multiple ~grid t] is the largest multiple of [grid] that is
    [<= t]. Requires [grid > zero] and [t >= zero]. *)

val pp : Format.formatter -> t -> unit
(** Human-readable rendering with an adaptive unit (ns/µs/ms/s). *)

val to_string : t -> string
