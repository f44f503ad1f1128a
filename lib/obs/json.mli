(** Minimal JSON tree, printer and reader.

    Just enough to serialise bench results and metrics snapshots, and to
    read them back for baseline diffs, without an external dependency. Output is deterministic: object members print
    in the order given, floats use a round-trippable shortest form, and
    non-finite floats become [null] (JSON has no representation for
    them). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val pp : Format.formatter -> t -> unit
(** Compact, valid JSON (no trailing commas, strings escaped per RFC
    8259). *)

val to_string : t -> string

val to_channel : out_channel -> t -> unit
(** Writes [pp] output plus a trailing newline. *)

val of_string : string -> (t, string) result
(** Parses RFC 8259 text: the inverse of [to_string] for every tree
    whose floats are finite and already at the printer's 12 significant
    digits. Integral numbers that fit an [int] read as [Int], all
    others as [Float]. Malformed input (truncation, trailing commas or
    characters, bad or surrogate [\u] escapes, raw control characters,
    nesting deeper than 512) returns [Error] with the byte offset; it
    never raises. *)
