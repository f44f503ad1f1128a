(** The harness every differential checker shares: one step-list
    shrinker, one failure record and one matrix loop.

    A checker is an instance of {!matrix}: how to draw a schedule from a
    seed, how to run one against its oracle, how to take its steps
    apart and put a subset back together, and how to print it and the
    command line that replays it. {!Run} (the supercharged pipeline
    against the flat-FIB oracle), {!Topo_run} (the multi-router fabric)
    and {!Ribscale} (the sharded RIB at Internet scale) are the three
    instances. Every checker's interpreter is total, so any sublist of a
    schedule's steps is itself a valid schedule — the precondition that
    makes shrinking sound. *)

type ('a, 's) matrix = {
  seeds : int64 list;  (** one schedule per seed, run in order *)
  generate : int64 -> 'a;  (** draws the schedule for a seed *)
  execute : 'a -> string list;
      (** runs one schedule; [[]] is a clean pass. Must be
          deterministic: shrinking re-executes every candidate. *)
  steps : 'a -> 's list;
  rebuild : 'a -> 's list -> 'a;  (** the same schedule over other steps *)
  pp : Format.formatter -> 'a -> unit;
  reproduce : int -> 'a -> string;
      (** [reproduce i s]: an [sc_lab] command line that replays [s],
          the [i]-th (0-based) schedule of the matrix, with every flag
          that shaped the run *)
}

type 'a failure = {
  schedule : 'a;  (** the schedule that first failed *)
  shrunk : 'a;  (** its 1-minimal counterexample *)
  violations : string list;  (** what [shrunk]'s last run reported *)
  reproduce : string;  (** the matrix's [reproduce] line for [schedule] *)
}

val consecutive : int64 -> int -> int64 list
(** [consecutive seed n] is [seed; seed+1; …; seed+n-1]. *)

val shrink :
  steps:('a -> 's list) ->
  rebuild:('a -> 's list -> 'a) ->
  execute:('a -> string list) ->
  'a ->
  'a * string list
(** Greedy delta debugging. Removes chunks of steps at halving sizes,
    then single steps in repeated sweeps until a full sweep removes
    nothing, keeping every removal after which [execute] still reports
    violations. Returns the shrunk value with the violations of its last
    failing run; the result is 1-minimal (dropping any one step makes it
    pass). A passing input comes back unchanged with [[]]. *)

val run : ?progress:(int -> unit) -> ('a, 's) matrix -> 'a failure option
(** Generates and executes one schedule per seed, stopping at the first
    failure with its shrunk counterexample. [None] means every schedule
    passed. [progress] is called with each 0-based index before its
    run. *)

val pp_failure :
  (Format.formatter -> 'a -> unit) -> Format.formatter -> 'a failure -> unit
(** Prints the violations, the original and shrunk schedules and the
    [reproduce:] line. *)
