(** Internet-scale RIB differential checker.

    Where {!Run} proves the whole supercharged pipeline forwards like
    the flat-FIB {!Oracle} on small topologies, this harness proves the
    {e control-plane data structure} — the sharded, incrementally
    re-ranked {!Bgp.Rib} — ranks exactly like the naive decision
    process at 10^5..10^6 prefixes. Both sides consume the same
    workload-generated feeds: skewed per-peer views of one
    {!Workloads.Rib_gen.generate_internet} table, route-collector-shaped
    withdrawal storms and churn trains, session losses and recoveries.

    Equivalence is ranked: for a checked prefix, the RIB's
    incrementally maintained candidate order must equal a from-scratch
    {!Bgp.Decision.rank} of the oracle's alive candidates
    ({!Bgp.Decision.compare} is a total order, so the ranked list is
    unique). After the initial load and once after the last event, a
    full sweep checks every prefix the oracle stores. After each event
    in between, the checker re-ranks only the prefixes either side
    wrote during it (its {e touched set}, stale RIB-only prefixes
    included), and the per-mask-length count of oracle-covered
    prefixes, kept up to date from each touched prefix's before and
    after coverage, must equal {!Bgp.Rib.length_histogram} cell by
    cell. The end sweep catches a write the touched set missed. Every
    RIB optimisation — sharding, splice-only re-ranking, indexed peer
    withdrawal — lands gated behind this harness. *)

type event =
  | Storm of { peer : int; share_pct : int }
      (** Session-reset flush: the peer withdraws a deterministic
          [share_pct]-percent slice of its view in table order. *)
  | Readvertise of { peer : int }
      (** Full-view re-announcement — identical routes must vanish into
          the RIB's [Unchanged] suppression. *)
  | Churn of { sub_seed : int64; events : int }
      (** A route-collector update train (bursty, ~20 % withdrawals).
          The sub-seed travels in the event, so shrinking neighbours
          never shifts its draws. *)
  | Peer_down of int
      (** Oracle masks; RIB deletes via {!Bgp.Rib.withdraw_peer}. *)
  | Peer_up of int
      (** Oracle unmasks; the RIB side re-announces the peer's ground
          truth from {!Oracle.peer_routes}. *)

type t = {
  seed : int64;
  n_peers : int;
  steps : event list;
}

val length : t -> int
val pp_event : Format.formatter -> event -> unit
val pp : Format.formatter -> t -> unit

val generate : seed:int64 -> ?n_peers:int -> ?length:int -> unit -> t
(** Deterministic schedule of [length] events (default 10) over
    [n_peers] peers (default 12). Every generated schedule contains at
    least one [Storm] — one is appended when the draw produced none. *)

val execute : ?mutate:bool -> entries:Workloads.Rib_gen.entry array -> t -> string list
(** Preloads every peer's skewed view of [entries] into both sides,
    then interprets the schedule: a full sweep after the load, the
    touched prefixes and per-length coverage counts after each event,
    and a final full sweep after the last one (an empty schedule runs
    the load sweep only). Stops at the first divergence, reported as
    [after step i (event): ...], or [final sweep after step i: ...]
    when only the end sweep saw it. [[]] is a clean pass. Deterministic: same entries, schedule and flag
    always return the same result. The interpreter is total — events
    aimed at down or already-up peers are silently absorbed, exactly as
    a silent or already-recovered session would be.

    [mutate] plants a deliberate stale-route bug on the optimised side
    only (every 7th withdrawal never reaches the RIB) — the harness's
    own canary, as {!Run.execute}'s [mutate] is for the pipeline. *)

val matrix :
  ?n_peers:int ->
  ?length:int ->
  ?entries:int ->
  ?mutate:bool ->
  seed:int64 ->
  schedules:int ->
  unit ->
  (t, event) Harness.matrix
(** The [sc_lab ribscale-check] instance of the harness. Generates one
    internet-shape table of [entries] prefixes (default 20 000) from
    [seed], shared by [schedules] schedules drawn from consecutive
    seeds [seed], [seed+1], …; each runs through {!execute}. A
    failure's reproduce line names the matrix seed and the failing
    schedule's 1-based index as [--schedules], so the replay draws the
    same table and the same schedule. *)
