(* This benchmark times the real host: wall-clock reads are its whole
   point, not leaked ambient state. Nothing here feeds the simulation's
   logical clock. *)
[@@@lint.allow "no-ambient-nondeterminism"]

(* Data-plane throughput: the per-packet hot loop of ROADMAP item 2.

   Two sections. The LPM section races the per-bit trie (Net.Lpm)
   against the flat stride-compressed table (Net.Flat_fib) on
   internet-shaped tables from 10 k to 1 M prefixes — lookups/sec,
   single calls and the zero-alloc batch primitive. The forwarding
   section measures packets/sec through the switch and the legacy
   router, single-packet receive vs the batched receive path that
   amortizes table-traversal setup and event scheduling across a
   burst. *)

type lpm_row = {
  prefixes : int;
  trie_lps : float;      (* Net.Lpm.lookup, lookups/sec *)
  flat_lps : float;      (* Net.Flat_fib.lookup_value *)
  flat_batch_lps : float; (* Net.Flat_fib.lookup_batch *)
}

type fwd_row = {
  fw_component : string; (* "switch" | "legacy_router" *)
  fw_rules : int;
  fw_packets : int;
  fw_batch : int;
  single_pps : float;
  batch_pps : float;
}

type report = {
  lpm : lpm_row list;
  lpm_lookups : int;
  forwarding : fwd_row list;
}

let time f =
  let t0 = Unix.gettimeofday () in
  f ();
  let dt = Unix.gettimeofday () -. t0 in
  if dt > 0.0 then dt else epsilon_float

let rate count seconds = float_of_int count /. seconds

(* Probe addresses: mostly hits spread across the table, with 1/8
   certain misses (above the sequential allocator's range) so the
   miss path is exercised too. Deterministic in the seed. *)
let probe_addresses rng entries count =
  Array.init count (fun i ->
      if i mod 8 = 7 then
        Net.Ipv4.of_octets 250 (Sim.Rng.int rng 256) (Sim.Rng.int rng 256) 1
      else
        let e : Workloads.Rib_gen.entry = Sim.Rng.pick rng entries in
        let span = min (Net.Prefix.size e.prefix) 256 in
        Net.Prefix.nth e.prefix (Sim.Rng.int rng span))

let lpm_section ~sizes ~lookups ~batch ~seed ~progress =
  List.map
    (fun count ->
      progress (Fmt.str "lpm: building %d-prefix tables" count);
      let entries = Workloads.Rib_gen.generate_dense ~seed ~count in
      let trie = Net.Lpm.create () in
      let flat = Net.Flat_fib.create () in
      Array.iteri
        (fun i (e : Workloads.Rib_gen.entry) ->
          Net.Lpm.insert trie e.prefix i;
          Net.Flat_fib.insert flat e.prefix i)
        entries;
      let rng = Sim.Rng.create ~seed in
      let probes = probe_addresses rng entries lookups in
      (* Batch inputs are pre-chunked so the measurement sees only the
         lookup work, like a burst already sitting in a ring buffer. *)
      let chunks =
        Array.init (lookups / batch) (fun k ->
            Array.sub probes (k * batch) batch)
      in
      let out = Array.make batch None in
      let sink = ref 0 in
      progress (Fmt.str "lpm: %d prefixes, %d lookups per structure" count lookups);
      let trie_s =
        time (fun () ->
            for i = 0 to lookups - 1 do
              match Net.Lpm.lookup trie probes.(i) with
              | Some _ -> incr sink
              | None -> ()
            done)
      in
      let flat_s =
        time (fun () ->
            for i = 0 to lookups - 1 do
              match Net.Flat_fib.lookup_value flat probes.(i) with
              | Some _ -> incr sink
              | None -> ()
            done)
      in
      let batched = Array.length chunks * batch in
      let flat_batch_s =
        time (fun () ->
            Array.iter
              (fun chunk -> Net.Flat_fib.lookup_batch flat chunk out)
              chunks)
      in
      ignore !sink;
      {
        prefixes = count;
        trie_lps = rate lookups trie_s;
        flat_lps = rate lookups flat_s;
        flat_batch_lps = rate batched flat_batch_s;
      })
    sizes

(* Switch forwarding: a convergence-shaped table (a few dozen
   VMAC-addressed rules, as the FIB cache installs) and a stream of
   frames for it. The single path schedules one pipeline event per
   packet; the batched path one per burst. *)
let switch_rows ~rules ~packets ~batch ~seed =
  let build () =
    let engine = Sim.Engine.create () in
    let switch = Openflow.Switch.create engine ~n_ports:4 () in
    for p = 0 to 3 do
      Openflow.Switch.set_port_tx switch ~port:p (fun _ -> ())
    done;
    let table = Openflow.Switch.table switch in
    let cache =
      Supercharger.Fib_cache.create
        ~allocator:(Supercharger.Vnh.create ())
        ~send:(function
          | Openflow.Message.Flow_mod fm -> Openflow.Flow_table.apply table fm
          | Openflow.Message.Hello | Openflow.Message.Echo_request _
          | Openflow.Message.Echo_reply _ | Openflow.Message.Features_request
          | Openflow.Message.Features_reply _ | Openflow.Message.Packet_in _
          | Openflow.Message.Packet_out _ | Openflow.Message.Barrier_request _
          | Openflow.Message.Barrier_reply _ ->
            ())
        ()
    in
    let peers =
      [|
        { Supercharger.Provisioner.pi_ip = Net.Ipv4.of_octets 10 0 0 2;
          pi_mac = Net.Mac.of_int 0xBB02; pi_port = 2 };
        { Supercharger.Provisioner.pi_ip = Net.Ipv4.of_octets 10 0 0 3;
          pi_mac = Net.Mac.of_int 0xBB03; pi_port = 3 };
      |]
    in
    Array.iter (Supercharger.Fib_cache.declare_peer cache) peers;
    let entries = Workloads.Rib_gen.generate_dense ~seed ~count:rules in
    Array.iteri
      (fun i (e : Workloads.Rib_gen.entry) ->
        ignore
          (Supercharger.Fib_cache.route cache e.prefix
             (Some peers.(i mod 2).Supercharger.Provisioner.pi_ip)))
      entries;
    let rng = Sim.Rng.create ~seed in
    let vmac = Supercharger.Fib_cache.vmac cache in
    let frames =
      Array.init packets (fun i ->
          let e : Workloads.Rib_gen.entry = Sim.Rng.pick rng entries in
          let dst = Net.Prefix.nth e.prefix (Sim.Rng.int rng (min (Net.Prefix.size e.prefix) 256)) in
          Net.Ethernet.make ~src:(Net.Mac.of_int 0xAA01) ~dst:vmac
            (Net.Ethernet.Ipv4
               (Net.Ipv4_packet.udp
                  ~src:(Net.Ipv4.of_octets 192 168 0 100)
                  ~dst ~src_port:(1024 + (i land 0xFFF)) ~dst_port:443 "x")))
    in
    (engine, switch, frames)
  in
  let engine, switch, frames = build () in
  let single_s =
    time (fun () ->
        Array.iter (fun f -> Openflow.Switch.receive switch ~port:0 f) frames;
        Sim.Engine.run engine)
  in
  let engine, switch, frames = build () in
  let chunks =
    Array.init (packets / batch) (fun k -> Array.sub frames (k * batch) batch)
  in
  let batched = Array.length chunks * batch in
  let batch_s =
    time (fun () ->
        Array.iter (fun c -> Openflow.Switch.receive_batch switch ~port:0 c) chunks;
        Sim.Engine.run engine)
  in
  {
    fw_component = "switch";
    fw_rules = rules;
    fw_packets = packets;
    fw_batch = batch;
    single_pps = rate packets single_s;
    batch_pps = rate batched batch_s;
  }

(* Legacy-router forwarding: a statically loaded flat FIB (thousands of
   routes) and transit frames addressed to the router's interface
   MAC. *)
let router_rows ~routes ~packets ~batch ~seed =
  let if_mac = Net.Mac.of_int 0xAA01 in
  let peer_mac = Net.Mac.of_int 0xBB02 in
  let build () =
    let engine = Sim.Engine.create () in
    let router =
      Router.Legacy.create engine ~name:"bench" ~asn:(Bgp.Asn.of_int 65001)
        ~router_id:(Net.Ipv4.of_octets 10 0 0 1)
        ~interfaces:
          [
            {
              Router.Legacy.if_mac;
              if_ip = Net.Ipv4.of_octets 10 0 0 1;
              if_connected = Net.Prefix.v "10.0.0.0/24";
            };
          ]
        ~fib_batch_start_latency:Sim.Time.zero
        ~fib_per_entry_latency:Sim.Time.zero ()
    in
    let entries = Workloads.Rib_gen.generate_dense ~seed ~count:routes in
    Router.Fib.enqueue_batch (Router.Legacy.fib router)
      (Array.to_list
         (Array.map
            (fun (e : Workloads.Rib_gen.entry) ->
              Router.Fib.Set
                (e.prefix, Router.Adjacency.make ~interface:0 ~mac:peer_mac))
            entries));
    Sim.Engine.run engine;
    let rng = Sim.Rng.create ~seed in
    let frames =
      Array.init packets (fun i ->
          let e : Workloads.Rib_gen.entry = Sim.Rng.pick rng entries in
          let dst = Net.Prefix.nth e.prefix (Sim.Rng.int rng (min (Net.Prefix.size e.prefix) 256)) in
          Net.Ethernet.make ~src:peer_mac ~dst:if_mac
            (Net.Ethernet.Ipv4
               (Net.Ipv4_packet.udp
                  ~src:(Net.Ipv4.of_octets 192 168 0 100)
                  ~dst ~src_port:(1024 + (i land 0xFFF)) ~dst_port:443 "x")))
    in
    (engine, router, frames)
  in
  let engine, router, frames = build () in
  let single_s =
    time (fun () ->
        Array.iter (fun f -> Router.Legacy.receive router ~interface:0 f) frames;
        Sim.Engine.run engine)
  in
  let engine, router, frames = build () in
  let chunks =
    Array.init (packets / batch) (fun k -> Array.sub frames (k * batch) batch)
  in
  let batched = Array.length chunks * batch in
  let batch_s =
    time (fun () ->
        Array.iter
          (fun c -> Router.Legacy.receive_batch router ~interface:0 c)
          chunks;
        Sim.Engine.run engine)
  in
  {
    fw_component = "legacy_router";
    fw_rules = routes;
    fw_packets = packets;
    fw_batch = batch;
    single_pps = rate packets single_s;
    batch_pps = rate batched batch_s;
  }

let run ?(sizes = [10_000; 100_000; 1_000_000]) ?(lookups = 1_000_000)
    ?(fwd_packets = 200_000) ?(switch_rules = 24) ?(router_routes = 4_096)
    ?(batch = 128) ?(seed = 11L) ?(progress = fun _ -> ()) () =
  let lpm = lpm_section ~sizes ~lookups ~batch ~seed ~progress in
  progress "forwarding: switch single vs batched";
  let sw = switch_rows ~rules:switch_rules ~packets:fwd_packets ~batch ~seed in
  progress "forwarding: legacy router single vs batched";
  let rt = router_rows ~routes:router_routes ~packets:fwd_packets ~batch ~seed in
  { lpm; lpm_lookups = lookups; forwarding = [sw; rt] }

let to_json r =
  Obs.Json.Obj
    [
      ("lookups_per_row", Obs.Json.Int r.lpm_lookups);
      ( "lpm",
        Obs.Json.List
          (List.map
             (fun row ->
               Obs.Json.Obj
                 [
                   ("prefixes", Obs.Json.Int row.prefixes);
                   ("trie_lookups_per_sec", Obs.Json.Float row.trie_lps);
                   ("flat_lookups_per_sec", Obs.Json.Float row.flat_lps);
                   ("flat_batch_lookups_per_sec", Obs.Json.Float row.flat_batch_lps);
                   ("flat_vs_trie", Obs.Json.Float (row.flat_lps /. row.trie_lps));
                 ])
             r.lpm) );
      ( "forwarding",
        Obs.Json.List
          (List.map
             (fun row ->
               Obs.Json.Obj
                 [
                   ("component", Obs.Json.String row.fw_component);
                   ("rules", Obs.Json.Int row.fw_rules);
                   ("packets", Obs.Json.Int row.fw_packets);
                   ("batch", Obs.Json.Int row.fw_batch);
                   ("single_pps", Obs.Json.Float row.single_pps);
                   ("batch_pps", Obs.Json.Float row.batch_pps);
                   ("batch_vs_single", Obs.Json.Float (row.batch_pps /. row.single_pps));
                 ])
             r.forwarding) );
    ]

let pp_report ppf r =
  Fmt.pf ppf "%-10s %16s %16s %18s %10s@." "prefixes" "trie lookups/s"
    "flat lookups/s" "flat batch/s" "flat/trie";
  List.iter
    (fun row ->
      Fmt.pf ppf "%-10d %16.0f %16.0f %18.0f %9.1fx@." row.prefixes row.trie_lps
        row.flat_lps row.flat_batch_lps
        (row.flat_lps /. row.trie_lps))
    r.lpm;
  Fmt.pf ppf "@.%-14s %8s %10s %7s %14s %14s %8s@." "component" "rules"
    "packets" "batch" "single pkt/s" "batch pkt/s" "gain";
  List.iter
    (fun row ->
      Fmt.pf ppf "%-14s %8d %10d %7d %14.0f %14.0f %7.2fx@." row.fw_component
        row.fw_rules row.fw_packets row.fw_batch row.single_pps row.batch_pps
        (row.batch_pps /. row.single_pps))
    r.forwarding
