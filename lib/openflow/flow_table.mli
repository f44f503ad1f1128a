(** Priority flow table with OpenFlow 1.0 flow-mod semantics.

    Lookup cost: rules that pin [dl_dst] are hashed on that MAC, so a
    packet costs one hash probe plus a walk of the rules sharing its
    destination MAC, plus a scan of the rules that wildcard [dl_dst]
    down to the priority of the indexed hit. With the supercharger's
    per-group VMAC rules that is O(1) in the number of groups. Tie-break
    (as OF 1.0): highest priority first, then earliest install, across
    indexed and wildcard rules alike. *)

type entry = {
  priority : int;
  ofmatch : Ofmatch.t;
  mutable actions : Action.t list;
      (** the only field a [Modify] changes *)
  cookie : int64;
  mutable packets : int;  (** match counter *)
}

type command =
  | Add
      (** insert; replaces an entry with identical match and priority *)
  | Modify
      (** update actions of all entries the given match {e subsumes}
          (OF 1.0 non-strict semantics); each entry keeps its install
          position and its packet counter *)
  | Modify_strict  (** as [Modify], for the exact match and priority *)
  | Delete
      (** remove all entries the given match subsumes; [Ofmatch.any]
          deletes everything *)
  | Delete_strict

type flow_mod = {
  command : command;
  fm_priority : int;
  fm_match : Ofmatch.t;
  fm_actions : Action.t list;
  fm_cookie : int64;
}

val flow_mod :
  ?cookie:int64 -> ?priority:int -> command -> Ofmatch.t -> Action.t list ->
  flow_mod
(** Default [priority] 100, [cookie] 0. *)

type t

val create : unit -> t

val apply : t -> flow_mod -> unit
(** Executes the flow-mod against the table (no latency — timing lives
    in {!Switch}). [Modify]/[Modify_strict] on a non-existent flow
    behaves like [Add], per OF 1.0. *)

val lookup : t -> Ofmatch.context -> entry option
(** Highest-priority matching entry; among equal priorities, the one
    installed earliest. Increments the entry's packet counter. *)

val peek : t -> Ofmatch.context -> entry option
(** Same selection as {!lookup} but touches no counters — the probe the
    differential checker uses to resolve a hypothetical packet without
    perturbing switch statistics. Allocation-free: the [Some] is the
    cell stored at install time. *)

val lookup_batch : t -> Ofmatch.context array -> entry option array -> unit
(** [lookup_batch t ctxs out] is pointwise {!lookup} over the burst,
    writing [out.(i)] for [ctxs.(i)], with the table-level counter
    bumped once by the batch size. Per-entry packet counters advance
    exactly as under sequential {!lookup}. The output array is
    caller-owned — allocate once, reuse across bursts. The returned
    [Some] cells are shared with the table (allocated at install time),
    so the lookup allocates nothing; enforced statically by
    [hot-path-alloc] and at runtime by the test suite. Raises
    [Invalid_argument] if [out] is shorter than [ctxs]. *)

val entries : t -> entry list
(** Priority-descending (lookup) order. *)

val size : t -> int

val lookups : t -> int
(** Total [lookup] calls since creation (hits and misses). *)

val clear : t -> unit

val pp : Format.formatter -> t -> unit
