module C = Supercharger.Controller
module Prov = Supercharger.Provisioner

let ip = Net.Ipv4.of_string_exn

(* Upstream BGP channels take duplicates only: BGP has no
   retransmission, so losing or reordering an announcement would change
   the test input, not stress the system (see [Schedule]). *)
let dup_profile = Sim.Faults.profile ~duplicate:0.3 "dup"

(* --- the rig ----------------------------------------------------------- *)

type rig = {
  engine : Sim.Engine.t;
  switch : Openflow.Switch.t;
  controller : C.t;
  peers : Router.Peer.t array;
  peer_links : Net.Link.t array;
  link_up : bool array;
  channel_faults : Sim.Faults.t array;
  router_faults : Sim.Faults.t;
  of_faults : Sim.Faults.t;
  router_rx : int ref;
  oracle : Oracle.t;
  subject : Invariants.subject;
}

(* Same topology as the fault-scenario rig: [n_peers] upstream providers
   on ports 1..n, the controller NIC on port [1+n], a dummy downstream
   router answering the BGP handshake. No import LOCAL_PREF policy —
   ranking must come from the announced attributes alone, so the oracle
   (which sees the same attributes) ranks identically. The linger is
   short so schedules exercise group GC and VNH/VMAC recycling within
   their dwell times. *)
let make_rig (sched : Schedule.t) =
  let seed = sched.Schedule.seed in
  let n_peers = sched.Schedule.n_peers in
  let engine = Sim.Engine.create ~seed () in
  let injector name salt profile =
    Sim.Faults.create engine ~name ~seed:(Int64.add seed (Int64.of_int salt)) profile
  in
  let switch = Openflow.Switch.create engine ~n_ports:(2 + n_peers) () in
  let controller =
    C.create engine ~name:"c1" ~asn:(Bgp.Asn.of_int 65001)
      ~router_id:(ip "10.0.0.100") ~group_linger:(Sim.Time.of_ms 400)
      ~bfd_debounce:(Sim.Time.of_ms 100) ~ack_timeout:(Sim.Time.of_ms 100)
      ~probe_interval:(Sim.Time.of_ms 100) ()
  in
  let of_faults = injector "of" 7777 Sim.Faults.none in
  C.connect_switch ~use_codec:true ~faults:of_faults controller switch;
  let nic_mac = Net.Mac.of_string_exn "00:cc:00:00:00:01" in
  let nic =
    Router.Endhost.create engine ~name:"c1-nic" ~mac:nic_mac ~ip:(ip "10.0.0.100") ()
  in
  let link_c = Net.Link.create engine () in
  Router.Endhost.connect nic link_c Net.Link.A;
  Openflow.Switch.attach_link switch ~port:(1 + n_peers) link_c Net.Link.B;
  Openflow.Flow_table.apply (Openflow.Switch.table switch)
    (Openflow.Flow_table.flow_mod ~priority:10 Openflow.Flow_table.Add
       (Openflow.Ofmatch.dl_dst nic_mac)
       [ Openflow.Action.Output (1 + n_peers) ]);
  C.attach_dataplane controller nic;
  let oracle = Oracle.create () in
  let peers =
    Array.init n_peers (fun i ->
        Router.Peer.create engine
          ~name:(Fmt.str "r%d" (2 + i))
          ~asn:(Bgp.Asn.of_int (65002 + i))
          ~mac:(Net.Mac.of_int (0xBB_0000_0000 + 2 + i))
          ~ip:(ip (Fmt.str "10.0.0.%d" (2 + i)))
          ())
  in
  let channel_faults = Array.make (max n_peers 1) (injector "ch-unused" 0 Sim.Faults.none) in
  let peer_links =
    Array.mapi
      (fun i peer ->
        let link = Net.Link.create engine () in
        Router.Peer.connect peer link Net.Link.A;
        Openflow.Switch.attach_link switch ~port:(1 + i) link Net.Link.B;
        Openflow.Flow_table.apply (Openflow.Switch.table switch)
          (Openflow.Flow_table.flow_mod ~priority:10 Openflow.Flow_table.Add
             (Openflow.Ofmatch.dl_dst (Router.Peer.mac peer))
             [ Openflow.Action.Output (1 + i) ]);
        let ch = Bgp.Channel.create engine () in
        let inj = injector (Fmt.str "ch%d" i) (1000 * (i + 1)) Sim.Faults.none in
        Bgp.Channel.set_faults ch inj;
        channel_faults.(i) <- inj;
        (* Speaker peer ids are dense in add order, so upstream [i] gets
           id [i] — the id the oracle ranks tie-breaks with. *)
        ignore
          (C.add_upstream_peer controller ~name:(Router.Peer.name peer)
             ~ip:(Router.Peer.ip peer) ~mac:(Router.Peer.mac peer)
             ~switch_port:(1 + i) ~channel:ch ~side:Bgp.Channel.A ());
        ignore
          (Router.Peer.add_bgp_peer peer ~name:"c1" ~channel:ch ~side:Bgp.Channel.B ());
        Oracle.declare_peer oracle ~id:i ~ip:(Router.Peer.ip peer)
          ~mac:(Router.Peer.mac peer) ~port:(1 + i);
        link)
      peers
  in
  let router_rx = ref 0 in
  let ch_r1 = Bgp.Channel.create engine () in
  let router_faults = injector "router-ch" 8888 Sim.Faults.none in
  Bgp.Channel.set_faults ch_r1 router_faults;
  ignore (C.add_router controller ~name:"r1" ~channel:ch_r1 ~side:Bgp.Channel.A ());
  Bgp.Channel.attach ch_r1 Bgp.Channel.B (fun msg ->
      match msg with
      | Bgp.Message.Open _ ->
        Bgp.Channel.send ch_r1 Bgp.Channel.B
          (Bgp.Message.Open
             {
               version = 4;
               asn = Bgp.Asn.of_int 65001;
               hold_time = 90;
               router_id = ip "10.0.0.1";
             });
        Bgp.Channel.send ch_r1 Bgp.Channel.B Bgp.Message.Keepalive
      | Bgp.Message.Update _ -> incr router_rx
      | Bgp.Message.Keepalive | Bgp.Message.Notification _ -> ());
  C.start controller;
  Array.iter (fun p -> Bgp.Speaker.start (Router.Peer.speaker p)) peers;
  Sim.Engine.run ~until:(Sim.Time.of_sec 1.0) engine;
  let subject =
    {
      Invariants.controller;
      switch;
      oracle;
      probe_port = 1 + n_peers;
      probe_mac = nic_mac;
      probe_src = ip "10.0.0.100";
      rule_priority = 100;
    }
  in
  {
    engine;
    switch;
    controller;
    peers;
    peer_links;
    link_up = Array.make n_peers true;
    channel_faults;
    router_faults;
    of_faults;
    router_rx;
    oracle;
    subject;
  }

let run_ms rig ms =
  Sim.Engine.run
    ~until:(Sim.Time.add (Sim.Engine.now rig.engine) (Sim.Time.of_ms ms))
    rig.engine

(* --- quiescence detection ---------------------------------------------- *)

let bfd_agree rig =
  let ok = ref true in
  Array.iteri
    (fun i peer ->
      match C.bfd_session rig.controller (Router.Peer.ip peer) with
      | Some s ->
        if Bfd.Session.state s = Bfd.Packet.Up <> rig.link_up.(i) then ok := false
      | None -> ok := false)
    rig.peers;
  !ok

let snapshot rig =
  ( Prov.flow_mods_sent (C.provisioner rig.controller),
    Openflow.Switch.flow_mods_applied rig.switch,
    Supercharger.Algorithm.announced_count (C.algorithm rig.controller),
    C.failovers_handled rig.controller,
    !(rig.router_rx) )

let quiet rig =
  C.quiescent rig.controller && Openflow.Switch.idle rig.switch && bfd_agree rig

(* Advance the simulation in 25 ms slices until the rig is quiet and its
   activity snapshot held still for two consecutive slices. The slice is
   much longer than any message latency (200 µs) or rule-install path,
   and shorter than the periodic noise floor (BFD tx 40 ms never touches
   the snapshot). [false] = no quiescence within the 60 s budget. *)
let settle rig =
  let deadline = Sim.Time.add (Sim.Engine.now rig.engine) (Sim.Time.of_sec 60.0) in
  let rec loop stable last =
    if Sim.Time.( >= ) (Sim.Engine.now rig.engine) deadline then false
    else begin
      run_ms rig 25;
      let snap = snapshot rig in
      if quiet rig && last = Some snap then stable + 1 >= 2 || loop (stable + 1) last
      else loop 0 (Some snap)
    end
  in
  loop 0 None

(* --- the event interpreter --------------------------------------------- *)

(* Both the rig and the oracle consume the same concrete stream derived
   from the event's dense indices. *)
let prefix_of i = Net.Prefix.v (Fmt.str "40.%d.%d.0/24" (i / 256) (i mod 256))

let attrs_of rig ~peer ~pref ~prepend =
  let p = rig.peers.(peer) in
  Bgp.Attributes.make ~local_pref:pref
    ~as_path:
      [ Bgp.Attributes.Seq (List.init (1 + prepend) (fun _ -> Router.Peer.asn p)) ]
    ~next_hop:(Router.Peer.ip p) ()

type ground_truth = Bgp.Attributes.t option array array (* peer -> prefix -> attrs *)

let send_route rig ~peer prefix attrs =
  Router.Peer.announce_to_all rig.peers.(peer)
    { Bgp.Message.withdrawn = []; attrs = Some attrs; nlri = [ prefix ] }

let interpret rig (gt : ground_truth) ev =
  let now = Sim.Engine.now rig.engine in
  let window span_ms profile inj =
    Sim.Faults.during inj
      ~from:(Sim.Time.add now (Sim.Time.of_ms 1))
      ~until:(Sim.Time.add now (Sim.Time.of_ms (1 + span_ms)))
      profile
  in
  match (ev : Schedule.event) with
  | Announce { peer; prefix; pref; prepend } ->
    let attrs = attrs_of rig ~peer ~pref ~prepend in
    gt.(peer).(prefix) <- Some attrs;
    Oracle.announce rig.oracle ~peer (prefix_of prefix) attrs;
    send_route rig ~peer (prefix_of prefix) attrs
  | Withdraw { peer; prefix } ->
    gt.(peer).(prefix) <- None;
    Oracle.withdraw rig.oracle ~peer (prefix_of prefix);
    Router.Peer.announce_to_all rig.peers.(peer)
      { Bgp.Message.withdrawn = [ prefix_of prefix ]; attrs = None; nlri = [] }
  | Peer_down p ->
    if rig.link_up.(p) then begin
      rig.link_up.(p) <- false;
      Oracle.peer_down rig.oracle p;
      Net.Link.set_up rig.peer_links.(p) false
    end
  | Peer_up p ->
    if not rig.link_up.(p) then begin
      rig.link_up.(p) <- true;
      Oracle.peer_up rig.oracle p;
      Net.Link.set_up rig.peer_links.(p) true
      (* Deliberately no re-announcement: the BGP session never reset,
         so a real peer stays silent. The controller must restore the
         routes from its own Adj-RIB-In (soft reconfiguration) — the
         checker exists to notice when it does not. *)
    end
  | Bfd_flap p ->
    if rig.link_up.(p) then begin
      match C.bfd_session rig.controller (Router.Peer.ip rig.peers.(p)) with
      | Some session -> Bfd.Session.inject_state session Bfd.Packet.Down
      | None -> ()
    end
  | Of_blackout { span_ms } -> window span_ms Sim.Faults.blackout rig.of_faults
  | Router_faults { profile; span_ms } ->
    let p =
      match Sim.Faults.of_name profile with
      | Some p -> p
      | None -> invalid_arg (Fmt.str "Run: unknown fault profile %s" profile)
    in
    window span_ms p rig.router_faults
  | Channel_dup { peer; span_ms } ->
    window span_ms dup_profile rig.channel_faults.(peer)

(* --- execution --------------------------------------------------------- *)

let checkpoint_every = 8

let[@lint.domain_entry
     "checker schedule runner: ROADMAP item 4 fans the schedule matrix out \
      one schedule per domain; everything below this frame must be \
      domain-confined or guarded"] execute ?(mutate = false) (sched : Schedule.t)
    =
  let rig = make_rig sched in
  if mutate then Prov.mutate_skip_rewrite (C.provisioner rig.controller) true;
  let gt = Array.make_matrix sched.n_peers sched.n_prefixes None in
  let violations = ref [] in
  let record tag = function
    | [] -> ()
    | vs -> if !violations = [] then violations := List.map (fun v -> tag ^ ": " ^ v) vs
  in
  let checkpoint tag =
    if settle rig then record tag (Invariants.at_quiescence rig.subject)
    else
      record tag
        [ Fmt.str "no quiescence within 60s (flow_mods=%d announced=%d degraded=%b)"
            (Prov.flow_mods_sent (C.provisioner rig.controller))
            (Supercharger.Algorithm.announced_count (C.algorithm rig.controller))
            (C.degraded rig.controller) ]
  in
  List.iteri
    (fun i step ->
      if !violations = [] then begin
        interpret rig gt step.Schedule.ev;
        run_ms rig step.Schedule.dwell_ms;
        record
          (Fmt.str "after event %d (%a)" (i + 1) Schedule.pp_event step.Schedule.ev)
          (Invariants.transient rig.subject);
        if !violations = [] && (i + 1) mod checkpoint_every = 0 then
          checkpoint (Fmt.str "checkpoint at event %d" (i + 1))
      end)
    sched.steps;
  if !violations = [] then checkpoint "final checkpoint";
  !violations

let matrix ?(n_peers = 3) ?(n_prefixes = 12) ?(events = 30) ?(chaos = true)
    ?(mutate = false) ~seed ~schedules () =
  {
    Harness.seeds = Harness.consecutive seed schedules;
    generate =
      (fun seed -> Schedule.generate ~seed ~n_peers ~n_prefixes ~length:events ~chaos ());
    execute = execute ~mutate;
    steps = (fun s -> s.Schedule.steps);
    rebuild = (fun s steps -> { s with Schedule.steps });
    pp = Schedule.pp;
    reproduce =
      (fun _ s ->
        Fmt.str
          "sc_lab check --seed %Ld --schedules 1 --peers %d --prefixes %d --events \
           %d%s%s"
          s.Schedule.seed n_peers n_prefixes events
          (if chaos then "" else " --no-chaos")
          (if mutate then " --mutate" else ""));
  }
