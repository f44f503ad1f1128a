(* The sections of [sc_lab bench]: every table and figure of the
   paper's evaluation (S4) and the DESIGN.md ablations. Each prints its
   table and returns its bench/v1 JSON, if any; [sc_lab fig5] and
   [sc_lab deployment] print through the same [fig5] and [deployment]
   functions. *)

let quick = function Experiments.Bench.Quick -> true | Paper | Full -> false
let full = function Experiments.Bench.Full -> true | Quick | Paper -> false
let progress msg = Fmt.epr "  %s@." msg

let section title = Fmt.pr "@.=== %s ===@.@." title

(* ------------------------------------------------------------------ *)
(* Figure 5: convergence time vs number of prefixes.                   *)

let fig5 ~sizes ~repetitions ?monitored_flows () =
  let rows = Experiments.Fig5.run ~sizes ~repetitions ?monitored_flows ~progress () in
  Experiments.Fig5.pp_table Fmt.stdout rows;
  Fmt.pr "@.";
  Experiments.Fig5.pp_ascii_figure Fmt.stdout rows;
  rows

let run_fig5 profile =
  section "Figure 5 - convergence time vs #prefixes (box-plot summary)";
  let sizes =
    if quick profile then [1_000; 5_000; 10_000; 50_000] else Experiments.Fig5.paper_sizes
  in
  let repetitions = if full profile then 3 else 1 in
  Fmt.pr "sizes: %a; repetitions: %d; 100 monitored flows each@.@."
    Fmt.(list ~sep:comma int)
    sizes repetitions;
  Some (Experiments.Fig5.to_json (fig5 ~sizes ~repetitions ()))

(* ------------------------------------------------------------------ *)
(* S4 micro-benchmark: per-update controller processing time.          *)

let run_micro profile =
  section "S4 micro-benchmark - controller BGP update processing";
  let count = if quick profile then 50_000 else 500_000 in
  Fmt.pr "feeding 2 x %d updates from two peers through the decision process@." count;
  Fmt.pr "and the Listing 1 algorithm (wall-clock per update)...@.@.";
  let report = Experiments.Micro.run ~count () in
  Fmt.pr "%a@." Experiments.Micro.pp_report report;
  Some (Experiments.Micro.to_json report)

(* ------------------------------------------------------------------ *)
(* Internet-scale control plane: full-shape table, skewed peer views.  *)

let run_ribscale profile =
  section "Internet-scale RIB - load / churn / storm / peer-down (100 peers)";
  let sizes = if quick profile then [50_000; 100_000] else [50_000; 100_000; 1_000_000] in
  Fmt.pr "sizes: %a; one internet-shape table, sliced per size; best of 3@.@."
    Fmt.(list ~sep:comma int)
    sizes;
  (* The CI-gated sizes run best-of-3 on both the baseline and the
     quick side; the 1M row (baseline record only, never hard-gated)
     runs once to keep the full pass affordable. *)
  let rows = Experiments.Ribscale.run ~sizes:[50_000; 100_000] () in
  let rows =
    if quick profile then rows
    else rows @ Experiments.Ribscale.run ~sizes:[1_000_000] ~reps:1 ()
  in
  Experiments.Ribscale.pp_rows Fmt.stdout rows;
  Some (Experiments.Ribscale.to_json rows)

(* ------------------------------------------------------------------ *)
(* S2: number of backup-groups vs number of peers.                     *)

let run_groups _profile =
  section "S2 - backup-group count vs peers (n x (n-1), 90 at n=10)";
  Fmt.pr "%-8s %12s %12s@." "peers" "allocated" "n*(n-1)";
  let rows =
    List.map
      (fun n ->
        (* Allocate every ordered pair, as a worst-case table would. *)
        let groups = Supercharger.Backup_group.create (Supercharger.Vnh.create ()) in
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            if i <> j then
              ignore
                (Supercharger.Backup_group.find_or_create groups
                   [
                     Net.Ipv4.of_octets 10 0 0 (2 + i);
                     Net.Ipv4.of_octets 10 0 0 (2 + j);
                   ])
          done
        done;
        let allocated = Supercharger.Backup_group.count groups in
        let max_ =
          Supercharger.Backup_group.theoretical_max ~n_peers:n ~group_size:2
        in
        Fmt.pr "%-8d %12d %12d@." n allocated max_;
        Obs.Json.Obj
          [
            ("peers", Obs.Json.Int n);
            ("allocated", Obs.Json.Int allocated);
            ("theoretical_max", Obs.Json.Int max_);
          ])
      [2; 3; 4; 5; 6; 8; 10; 12; 16]
  in
  Some (Obs.Json.List rows)

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md A1-A3).                                        *)

let run_ablations profile =
  section "Ablation A1 - supercharged convergence vs BFD interval";
  let n_prefixes = if quick profile then 2_000 else 10_000 in
  let bfd = Experiments.Ablations.bfd_sweep ~n_prefixes () in
  Experiments.Ablations.pp_points
    ~header:(Fmt.str "(%d prefixes, detect mult 3)" n_prefixes)
    Fmt.stdout bfd;
  section "Ablation A2 - supercharged convergence vs flow-mod latency";
  let flow_mod = Experiments.Ablations.flow_mod_sweep ~n_prefixes () in
  Experiments.Ablations.pp_points
    ~header:(Fmt.str "(%d prefixes, BFD 3 x 40ms)" n_prefixes)
    Fmt.stdout flow_mod;
  section "Ablation A3 - controller replication (S3)";
  let replicas =
    Experiments.Ablations.replicas ~n_prefixes:(if quick profile then 1_000 else 5_000) ()
  in
  Fmt.pr "%a@." Experiments.Ablations.pp_replica_report replicas;
  section "Ablation A4 - backup-groups of any size (double failure)";
  let double =
    Experiments.Ablations.double_failure ~n_prefixes:(if quick profile then 500 else 2_000) ()
  in
  Fmt.pr "%a@." Experiments.Ablations.pp_double_failure double;
  Some
    (Obs.Json.Obj
       [
         ("bfd_sweep", Experiments.Ablations.points_to_json bfd);
         ("flow_mod_sweep", Experiments.Ablations.points_to_json flow_mod);
         ("replicas", Experiments.Ablations.replica_report_to_json replicas);
         ("double_failure", Experiments.Ablations.double_failure_to_json double);
       ])

(* ------------------------------------------------------------------ *)
(* Extension tables: the other "supercharging aspects" of S1.          *)

let run_extensions profile =
  section "Extension E1 - FIB compression through the switch (S1, ViAggre-style)";
  Fmt.pr "%-10s %16s %14s %12s@." "prefixes" "router entries" "switch rules"
    "compression";
  let sizes = if quick profile then [1_000; 10_000] else [1_000; 10_000; 50_000; 200_000; 500_000] in
  List.iter
    (fun count ->
      let table = Openflow.Flow_table.create () in
      let cache =
        Supercharger.Fib_cache.create
          ~allocator:(Supercharger.Vnh.create ())
          ~send:(function
            | Openflow.Message.Flow_mod fm -> Openflow.Flow_table.apply table fm
            | Hello | Echo_request _ | Echo_reply _ | Features_request
            | Features_reply _ | Packet_in _ | Packet_out _ | Barrier_request _
            | Barrier_reply _ -> ())
          ()
      in
      Supercharger.Fib_cache.declare_peer cache
        { Supercharger.Provisioner.pi_ip = Net.Ipv4.of_octets 10 0 0 2;
          pi_mac = Net.Mac.of_int 0xBB02; pi_port = 2 };
      let entries = Workloads.Rib_gen.generate ~seed:9L ~count in
      Array.iter
        (fun (e : Workloads.Rib_gen.entry) ->
          ignore
            (Supercharger.Fib_cache.route cache e.prefix
               (Some (Net.Ipv4.of_octets 10 0 0 2))))
        entries;
      Fmt.pr "%-10d %16d %14d %11.0fx@." count
        (Supercharger.Fib_cache.aggregates cache)
        (Supercharger.Fib_cache.specifics cache)
        (Supercharger.Fib_cache.compression_factor cache))
    sizes;
  section "Extension E2 - load balancing: router hash vs supercharged (S1)";
  let n_targets = 4 and n_flows = if quick profile then 2_000 else 20_000 in
  let rng = Sim.Rng.create ~seed:3L in
  let flows =
    Array.init n_flows (fun i ->
        let low = [|1; 16; 17; 32|].(Sim.Rng.int rng 4) in
        {
          Supercharger.Load_balancer.fk_src = Net.Ipv4.of_octets 192 168 0 100;
          fk_dst = Net.Ipv4.of_octets 1 (Sim.Rng.int rng 200) (Sim.Rng.int rng 250) low;
          fk_src_port = 1024 + (i mod 50_000);
          fk_dst_port = 443;
        })
  in
  let hash_loads = Array.make n_targets 0 in
  Array.iter
    (fun key ->
      let b = Supercharger.Load_balancer.static_hash ~n_targets key in
      hash_loads.(b) <- hash_loads.(b) + 1)
    flows;
  let lb =
    Supercharger.Load_balancer.create
      ~allocator:(Supercharger.Vnh.create ()) ~send:(fun _ -> ()) ()
  in
  for t = 0 to n_targets - 1 do
    Supercharger.Load_balancer.add_target lb
      { Supercharger.Provisioner.pi_ip = Net.Ipv4.of_octets 10 0 0 (2 + t);
        pi_mac = Net.Mac.of_int (0xBB00 + t); pi_port = 2 + t }
  done;
  Array.iter (fun key -> ignore (Supercharger.Load_balancer.assign lb key)) flows;
  let mean = float_of_int n_flows /. float_of_int n_targets in
  Fmt.pr "%d skewed flows over %d next hops:@." n_flows n_targets;
  Fmt.pr "  router hash imbalance (max/mean): %.2f@."
    (float_of_int (Array.fold_left max 0 hash_loads) /. mean);
  Fmt.pr "  supercharged imbalance:           %.2f@."
    (Supercharger.Load_balancer.imbalance lb);
  None

(* ------------------------------------------------------------------ *)
(* Data-plane throughput: trie vs flat FIB, single vs batched.         *)

let run_dataplane profile =
  section "Data plane - LPM lookups/sec and forwarding packets/sec";
  let sizes = if quick profile then [10_000; 50_000] else [10_000; 100_000; 1_000_000] in
  let lookups = if quick profile then 200_000 else 1_000_000 in
  let fwd_packets = if quick profile then 50_000 else 200_000 in
  Fmt.pr "table sizes: %a; %d lookups per structure; %d packets per path@.@."
    Fmt.(list ~sep:comma int)
    sizes lookups fwd_packets;
  let report =
    Experiments.Dataplane.run ~sizes ~lookups ~fwd_packets ~progress ()
  in
  Fmt.pr "%a@." Experiments.Dataplane.pp_report report;
  Some (Experiments.Dataplane.to_json report)

(* ------------------------------------------------------------------ *)
(* Partial deployment - the multi-router topology sweep.               *)

let deployment ~routers ~n_prefixes ?coverage ?seeds () =
  let rows = Experiments.Deployment.run ~routers ~n_prefixes ?coverage ?seeds ~progress () in
  Experiments.Deployment.pp_table Fmt.stdout rows;
  rows

let run_deployment profile =
  section "Deployment - convergence win vs % of routers supercharged";
  let routers = if full profile then 10 else 8 in
  let n_prefixes = if quick profile then 150 else if full profile then 1_000 else 400 in
  let coverage = if quick profile then Some [ 0; 1; 2; 3; 5; routers ] else None in
  Fmt.pr
    "%d-router ring+chords, 3 externs, %d prefixes; scenarios: extern-fail, srlg, \
     partition@.@."
    routers n_prefixes;
  Some (Experiments.Deployment.to_json (deployment ~routers ~n_prefixes ?coverage ()))

(* ------------------------------------------------------------------ *)

(* Every section, in run order (also the order of the JSON sections). *)
let all =
  [
    ("fig5", run_fig5);
    ("micro", run_micro);
    ("groups", run_groups);
    ("ablations", run_ablations);
    ("extensions", run_extensions);
    ("dataplane", run_dataplane);
    ("ribscale", run_ribscale);
    ("deployment", run_deployment);
  ]

(* Opens [path] now, so an unwritable path fails before any section
   runs; the returned function writes the bench/v1 envelope. *)
let json_sink profile = function
  | None -> ignore
  | Some path ->
    let oc = try open_out path with Sys_error msg -> Fmt.epr "sc_lab: %s@." msg; exit 1 in
    fun sections ->
      Obs.Json.to_channel oc (Experiments.Bench.envelope profile sections);
      close_out oc;
      Fmt.pr "@.json artifact written to %s@." path
