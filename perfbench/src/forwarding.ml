(* forwarding: the paper's two-stage data plane under skewed traffic.

   Stage 1 is the router FIB (Router.Fib over Net.Flat_fib) holding an
   Internet-shape table, far beyond L2; each prefix's adjacency carries
   the VMAC of its backup-group. Stage 2 is the switch's per-group VMAC
   rule, resolved by Switch.resolve_batch. Traffic arrives in NIC-sized
   bursts: a hot set of destinations carries most packets, over a
   uniform tail. Every [write_every] bursts a burst of route writes
   (Set/Remove through the FIB's update queue, plus one group re-point)
   is applied, so a lookup gain that costs writes shows.

   The write rate is that of the paper's lab while the plain router
   reconverges: the FIB takes one entry per [fib_per_entry] (281 µs,
   the Nexus 7k calibration of [Topology.default_params]) while each of
   the 100 monitored flows sends one packet per 70 µs [grid], so one
   write per about 401 packets. That is the busiest write load the
   paper measures; steady-state BGP churn writes far less often. The
   hot set (1024 destinations carrying 90 % of packets) is this
   benchmark's choice: popular destinations are known to carry most
   traffic, but no measured share backs these two figures.

   Operation: one burst through both stages; side operation: one write
   burst; work: packets per second of burst time. The control plane is
   idle. *)

let entries_count = function Ctx.Full -> 1_000_000 | Ctx.Tiny -> 20_000
let stream_length = function Ctx.Full -> 1 lsl 20 | Ctx.Tiny -> 1 lsl 14
let n_peers = 8
let burst = 64
let writes_per_burst = 64

(* Bursts between two write bursts, so that the workload applies one
   route write per [packets_per_write] packets. *)
let packets_per_write =
  let p = Experiments.Topology.default_params ~n_prefixes:1 () in
  float_of_int p.monitored_flows *. Sim.Time.to_us p.fib_per_entry /. Sim.Time.to_us p.grid

let write_every =
  int_of_float
    (Float.round (packets_per_write *. float_of_int writes_per_burst /. float_of_int burst))

let write_bursts = 256
let hot_destinations = 1024
let hot_share_pct = 90

(* Every [check_every]-th burst is re-resolved packet by packet. *)
let check_every = 97

(* The burst and write timings are summarised over windows of
   [bursts_per_window] bursts, about [window_s] seconds on the
   reference host, which sizes the run. *)
let bursts_per_window = 4096
let window_s = 0.3

let sp_burst = Span.name "forwarding.burst"
let sp_write = Span.name "forwarding.write"
let sp_lookup = Span.name "router.fib.lookup_batch"
let sp_resolve = Span.name "openflow.switch.resolve_batch"
let sp_fib_write = Span.name "router.fib.write_burst"
let sp_fail = Span.name "supercharger.provisioner.fail_peer"
let sp_install = Span.name "supercharger.provisioner.install_group"
let sp_apply = Span.name "openflow.flow_table.apply"

let router_mac = Net.Mac.of_int64 0x00AA_0000_0001L
let peer_ip i = Net.Ipv4.of_octets 10 0 1 (1 + i)
let peer_mac i = Net.Mac.of_int64 (Int64.add 0x00BB_0000_0000L (Int64.of_int (i + 1)))

type state = {
  engine : Sim.Engine.t;
  fib : Router.Fib.t;
  switch : Openflow.Switch.t;
  prov : Supercharger.Provisioner.t;
  groups : Supercharger.Backup_group.binding array;
  adjacency : Router.Adjacency.t array;  (** per group *)
  by_vmac : (Net.Mac.t, Supercharger.Backup_group.binding) Hashtbl.t;
  mirror : Router.Adjacency.t Net.Lpm.t;  (** reference trie for the checks *)
  stream : Net.Ipv4.t array;  (** destinations, consumed cyclically *)
  writes : Router.Fib.op list array;  (** write bursts, applied cyclically *)
  payload : Net.Ethernet.payload;
  flow_mods : int ref;
}

let build scale ~seed =
  let rng = Sim.Rng.create ~seed in
  (* Only the prefixes are kept: the generated paths are not needed. *)
  let (prefixes, stream, assign), gen_s =
    Ctx.timed (fun () ->
        let prefixes =
          Array.map
            (fun (e : Workloads.Rib_gen.entry) -> e.prefix)
            (Workloads.Rib_gen.generate_internet ~seed ~count:(entries_count scale))
        in
        let host p = Net.Prefix.nth p (Sim.Rng.int rng (min (Net.Prefix.size p) 256)) in
        let hot = Array.init hot_destinations (fun _ -> host (Sim.Rng.pick rng prefixes)) in
        let stream =
          Array.init (stream_length scale) (fun _ ->
              if Sim.Rng.int rng 100 < hot_share_pct then Sim.Rng.pick rng hot
              else host (Sim.Rng.pick rng prefixes))
        in
        let assign = Array.map (fun _ -> Sim.Rng.int rng (n_peers * (n_peers - 1))) prefixes in
        (prefixes, stream, assign))
  in
  let engine = Sim.Engine.create ~seed () in
  let switch = Openflow.Switch.create engine ~name:"sw" ~n_ports:(n_peers + 1) () in
  let table = Openflow.Switch.table switch in
  let flow_mods = ref 0 in
  let send = function
    | Openflow.Message.Flow_mod fm ->
      incr flow_mods;
      let s = Span.enter sp_apply in
      Openflow.Flow_table.apply table fm;
      Span.leave s
    | _ -> ()
  in
  let prov = Supercharger.Provisioner.create ~metrics:(Obs.Metrics.create ()) ~send () in
  for i = 0 to n_peers - 1 do
    Supercharger.Provisioner.declare_peer prov
      { Supercharger.Provisioner.pi_ip = peer_ip i; pi_mac = peer_mac i; pi_port = i + 1 }
  done;
  let registry = Supercharger.Backup_group.create (Supercharger.Vnh.create ()) in
  Supercharger.Backup_group.on_create registry (Supercharger.Provisioner.install_group prov);
  (* Every ordered pair of peers is a group: n·(n−1) VMAC rules. *)
  let groups =
    List.concat_map
      (fun a ->
        List.filter_map
          (fun b ->
            if a = b then None
            else
              Some
                (Supercharger.Backup_group.find_or_create registry [peer_ip a; peer_ip b]))
          (List.init n_peers Fun.id))
      (List.init n_peers Fun.id)
    |> Array.of_list
  in
  let adjacency =
    Array.map
      (fun (g : Supercharger.Backup_group.binding) ->
        Router.Adjacency.make ~interface:0 ~mac:g.vmac)
      groups
  in
  let by_vmac = Hashtbl.create 64 in
  Array.iter
    (fun (g : Supercharger.Backup_group.binding) -> Hashtbl.replace by_vmac g.vmac g)
    groups;
  let fib = Router.Fib.create engine () in
  let mirror = Net.Lpm.create () in
  Array.iteri (fun i p -> Net.Lpm.insert mirror p adjacency.(assign.(i))) prefixes;
  (* The router's engine keeps no event trace (as the lab runs at
     scale); the table is downloaded in batches so the queue never holds
     the whole table at once. *)
  Sim.Trace.set_enabled (Sim.Engine.trace engine) false;
  let chunk = 65_536 in
  for c = 0 to (Array.length prefixes - 1) / chunk do
    let lo = c * chunk in
    let hi = min (Array.length prefixes) (lo + chunk) in
    Router.Fib.enqueue_batch fib
      (List.init (hi - lo) (fun k ->
           let i = lo + k in
           Router.Fib.Set (prefixes.(i), adjacency.(assign.(i)))));
    Sim.Engine.run engine
  done;
  (* Write bursts: half removals, half re-points to another group, over
     random table prefixes; a later re-point re-inserts a removed one. *)
  let writes =
    Array.init write_bursts (fun _ ->
        List.init writes_per_burst (fun k ->
            let p = Sim.Rng.pick rng prefixes in
            if k mod 2 = 0 then Router.Fib.Remove p
            else Router.Fib.Set (p, Sim.Rng.pick rng adjacency)))
  in
  let payload =
    Net.Ethernet.Ipv4
      (Net.Ipv4_packet.udp ~src:(Net.Ipv4.of_octets 192 168 0 1)
         ~dst:(Net.Ipv4.of_octets 1 0 0 1) ~src_port:1 ~dst_port:1 "x")
  in
  ( { engine; fib; switch; prov; groups; adjacency; by_vmac; mirror; stream; writes;
      payload; flow_mods },
    gen_s )

type buffers = {
  addrs : Net.Ipv4.t array;
  adjs : Router.Adjacency.t option array;
  frames : Net.Ethernet.frame array;
  out : Openflow.Switch.resolution array;
  mutable lost : int;  (** routed packets the switch did not forward *)
  mutable unrouted : int;  (** packets the FIB had no route for *)
  lookup_words : float array;
  resolve_words : float array;
      (** words allocated by the two zero-alloc stages in the traced run;
          one-cell float arrays, so adding to them allocates nothing *)
}

let buffers st =
  let frame = Net.Ethernet.make ~src:router_mac ~dst:router_mac st.payload in
  {
    addrs = Array.make burst Net.Ipv4.any;
    adjs = Array.make burst None;
    frames = Array.make burst frame;
    out = Array.make burst Openflow.Switch.Miss;
    lost = 0;
    unrouted = 0;
    lookup_words = [| 0.0 |];
    resolve_words = [| 0.0 |];
  }

(* One burst through both stages. The router's L2 rewrite between the
   stages builds each outgoing frame, as a router does. *)
let forward st b ~offset ~measure_words =
  Span.new_request ();
  let r = Span.enter sp_burst in
  Array.blit st.stream offset b.addrs 0 burst;
  let w0 = if measure_words then Gc.minor_words () else 0.0 in
  let s = Span.enter sp_lookup in
  Router.Fib.lookup_batch st.fib b.addrs b.adjs;
  Span.leave s;
  if measure_words then b.lookup_words.(0) <- b.lookup_words.(0) +. (Gc.minor_words () -. w0);
  for i = 0 to burst - 1 do
    match b.adjs.(i) with
    | Some adj -> b.frames.(i) <- Net.Ethernet.make ~src:router_mac ~dst:adj.mac st.payload
    | None -> b.frames.(i) <- Net.Ethernet.make ~src:router_mac ~dst:router_mac st.payload
  done;
  let w0 = if measure_words then Gc.minor_words () else 0.0 in
  let s = Span.enter sp_resolve in
  Openflow.Switch.resolve_batch st.switch ~port:0 b.frames b.out;
  Span.leave s;
  if measure_words then b.resolve_words.(0) <- b.resolve_words.(0) +. (Gc.minor_words () -. w0);
  for i = 0 to burst - 1 do
    match b.adjs.(i), b.out.(i) with
    | None, _ -> b.unrouted <- b.unrouted + 1
    | Some _, Openflow.Switch.Forward _ -> ()
    | Some _, (Openflow.Switch.Punt | Openflow.Switch.Miss | Openflow.Switch.Blackhole) ->
      b.lost <- b.lost + 1
  done;
  Span.leave r

(* Write burst [k]: the route writes through the FIB's serialized queue,
   drained on the router's engine, then one group re-point — Listing 2
   on even bursts, the recovery re-install on odd ones. *)
let write st k =
  Span.new_request ();
  let r = Span.enter sp_write in
  let s = Span.enter sp_fib_write in
  Router.Fib.enqueue_batch st.fib st.writes.(k mod Array.length st.writes);
  Sim.Engine.run st.engine;
  Span.leave s;
  let g = st.groups.((k / 2) mod Array.length st.groups) in
  let primary = List.hd g.next_hops in
  if k mod 2 = 0 then begin
    let s = Span.enter sp_fail in
    ignore (Supercharger.Provisioner.fail_peer st.prov primary [g]);
    Span.leave s
  end
  else begin
    Supercharger.Provisioner.revive_peer st.prov primary;
    let s = Span.enter sp_install in
    Supercharger.Provisioner.install_group st.prov g;
    Span.leave s
  end;
  Span.leave r

(* Re-resolves a burst packet by packet: the batched FIB result must
   equal the single lookup and the reference trie, and the switch must
   send the packet to the group's selected member. *)
let check (sink : Metric.t) st b =
  for i = 0 to burst - 1 do
    let a = b.addrs.(i) in
    let batched = b.adjs.(i) in
    let single = Router.Fib.lookup st.fib a in
    let reference = Option.map snd (Net.Lpm.lookup st.mirror a) in
    let same x y = Option.equal Router.Adjacency.equal x y in
    let stage2 =
      match batched, b.out.(i) with
      | Some adj, Openflow.Switch.Forward (frame, ports) -> (
        match Hashtbl.find_opt st.by_vmac adj.mac with
        | Some g -> (
          match Supercharger.Provisioner.selected st.prov g with
          | Some ip -> (
            match Supercharger.Provisioner.peer st.prov ip with
            | Some info -> Net.Mac.equal frame.dst info.pi_mac && ports = [info.pi_port]
            | None -> false)
          | None -> false)
        | None -> false)
      | None, Openflow.Switch.Forward _ -> false
      | None, (Openflow.Switch.Punt | Openflow.Switch.Miss | Openflow.Switch.Blackhole) -> true
      | Some _, (Openflow.Switch.Punt | Openflow.Switch.Miss | Openflow.Switch.Blackhole) -> false
    in
    Metric.attempt sink
      (same batched single && same batched reference && stage2)
      (lazy
        (Fmt.str "packet to %a: batched %a, single %a, trie %a, switch %s" Net.Ipv4.pp a
           Fmt.(option Router.Adjacency.pp) batched
           Fmt.(option Router.Adjacency.pp) single
           Fmt.(option Router.Adjacency.pp) reference
           (if stage2 then "ok" else "wrong")))
  done

(* Applies write burst [k] to the reference trie. *)
let mirror_writes st k =
  List.iter
    (function
      | Router.Fib.Set (p, adj) -> Net.Lpm.insert st.mirror p adj
      | Router.Fib.Remove p -> Net.Lpm.remove st.mirror p)
    st.writes.(k mod Array.length st.writes)

let run (ctx : Ctx.t) =
  let sink = ctx.sink in
  let st = Ctx.setup ctx (fun () -> build ctx.scale ~seed:(Ctx.seed64 ctx)) in
  let b = buffers st in
  let bursts = Timing.windows () and traced_bursts = Timing.windows () in
  let writes = Timing.windows () in
  let packets = ref 0 and offset = ref 0 in
  let n_writes = ref 0 in
  let burst_words = [| 0.0 |] and write_words = [| 0.0 |] in
  let writes_applied0 = Router.Fib.applied_count st.fib in
  let majors0 = Ctx.major_collections () in
  let one_burst samples ~measure_words =
    let w0 = Gc.minor_words () in
    let t0 = Timing.clock () in
    forward st b ~offset:!offset ~measure_words;
    Stats.add samples (Timing.elapsed t0);
    if not measure_words then burst_words.(0) <- burst_words.(0) +. (Gc.minor_words () -. w0);
    packets := !packets + burst;
    offset := (!offset + burst) mod (Array.length st.stream - burst);
    (* 0-based index of this burst: the first burst is checked and
       followed by a write burst. *)
    let k = Stats.length bursts.all + Stats.length traced_bursts.all - 1 in
    if k mod check_every = 0 then check sink st b;
    if k mod write_every = 0 then begin
      let w0 = Gc.minor_words () in
      let t0 = Timing.clock () in
      write st !n_writes;
      Stats.add writes.all (Timing.elapsed t0);
      write_words.(0) <- write_words.(0) +. (Gc.minor_words () -. w0);
      mirror_writes st !n_writes;
      incr n_writes
    end
  in
  let windows = Ctx.repeats ctx ~unit_s:window_s in
  let windows = if ctx.trace then max 1 (windows / 2) else windows in
  for _ = 1 to windows do
    for _ = 1 to bursts_per_window do
      one_burst bursts.all ~measure_words:false
    done;
    Timing.close bursts;
    Timing.close writes
  done;
  if ctx.trace then begin
    Ctx.traced (fun () ->
        for _ = 1 to windows do
          for _ = 1 to bursts_per_window do
            one_burst traced_bursts.all ~measure_words:true
          done;
          Timing.close traced_bursts
        done);
    Ctx.record_overhead ctx ~untraced:bursts ~traced:traced_bursts;
    let roots, failed = Span.check () in
    Metric.attempts sink ~n:roots ~failed
      (lazy
        (Fmt.str "%d of %d traced requests have a span outside its parent or overlapping a sibling"
           failed roots));
    let traced_packets = float_of_int (Stats.length traced_bursts.all * burst) in
    Metric.set sink "gc.router.fib.lookup_batch.minor_words_per_packet"
      (b.lookup_words.(0) /. traced_packets);
    Metric.set sink "gc.openflow.switch.resolve_batch.minor_words_per_packet"
      (b.resolve_words.(0) /. traced_packets);
    (match Hashtbl.find_opt (Span.totals ()) "router.fib.lookup_batch" with
    | Some t ->
      Metric.set sink "net.flat_fib.lookups_per_s"
        (traced_packets /. (float_of_int t.Span.total_ns *. 1e-9))
    | None -> ())
  end;
  Metric.set sink "gc.major_collections"
    (float_of_int (Ctx.major_collections () - majors0));
  (* Every routed packet must leave on a port: every group has a rule.
     A packet whose prefix a write burst removed has no route, and the
     router drops it before the switch. *)
  Metric.attempts sink ~n:!packets ~failed:b.lost
    (lazy (Fmt.str "%d of %d routed packets were not forwarded" b.lost !packets));
  Metric.detail sink "unrouted" "%d of %d packets had no route" b.unrouted !packets;
  Metric.timing sink ~p50:"op_p50_us" ~p99:"op_p99_us" ~what:"burst of 64 packets" bursts;
  Metric.timing sink ~p50:"side_op_p50_us" ~what:"write burst" writes;
  Metric.set sink "work_per_s"
    (float_of_int burst *. Timing.normalized_rate bursts bursts.per_s);
  Metric.set sink "gc.minor_words_per_op"
    (burst_words.(0) /. float_of_int (Stats.length bursts.all));
  Metric.set sink "gc.minor_words_per_side_op"
    (write_words.(0) /. float_of_int (max 1 (Stats.length writes.all)));
  Metric.set sink "router.fib.writes"
    (float_of_int (Router.Fib.applied_count st.fib - writes_applied0));
  Metric.set sink "openflow.flow_mods" (float_of_int !(st.flow_mods))
