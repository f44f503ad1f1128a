(** Internet-scale control-plane benchmark: the [sc_lab bench ribscale]
    section and the committed [BENCH_ribscale.json] baseline.

    One {!Workloads.Rib_gen.generate_internet} table (generated once at
    the largest requested size and sliced per section), [peers] skewed
    views of it (peer 0 a full transit feed, the tail thinning as
    {!Workloads.Rib_gen.view_share}), all driven through the real
    {!Bgp.Rib} → {!Supercharger.Algorithm} pipeline. Sections: initial
    multi-peer load, a route-collector churn train, a withdrawal storm
    on the transit feed twice (the second must resurrect idle
    backup-groups rather than allocate), and a minority-peer session
    loss with the RIB's candidate-visit counter read around it. *)

type row = {
  prefixes : int;
  peers : int;
  routes : int;  (** routes loaded across all views (≈2.5 table equivalents) *)
  load_per_sec : float;  (** initial load, routes/s through Rib + Algorithm *)
  churn_per_sec : float;  (** update-train events/s at steady state *)
  storm_per_sec : float;  (** storm withdraw+re-announce events/s *)
  storm_groups_created : int;  (** backup-groups allocated by the first storm *)
  storm_groups_repeat : int;  (** ... by an identical second storm — 0 when reuse works *)
  peer_down_ms : float;  (** indexed peer-down, whole batch through Algorithm *)
  peer_down_changes : int;  (** emissions the session loss produced *)
  peer_down_visits : int;  (** candidate-list nodes the peer-down inspected *)
  visit_ratio : float;  (** visits per withdrawn prefix — must stay O(avg candidates) *)
}

val default_sizes : int list

val run :
  ?sizes:int list ->
  ?peers:int ->
  ?seed:int64 ->
  ?churn_events:int ->
  ?reps:int ->
  unit ->
  row list
(** Defaults: sizes [100k; 1M], 100 peers, seed 42, 50 000 churn
    events, 3 repetitions. Counters are deterministic across
    repetitions; throughputs report the best and latencies the lowest
    of the [reps] runs, so the committed baseline and the CI quick run
    compare repeatable costs rather than scheduler noise.
    @raise Invalid_argument with fewer than 2 peers or 1 rep. *)

val pp_rows : Format.formatter -> row list -> unit
val to_json : row list -> Obs.Json.t
