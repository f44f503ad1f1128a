(* internet-feed: the controller stack at Internet shape, no simulator.

   One [Rib_gen.generate_internet] table and skewed peer views
   ([view_share]/[in_view]) are driven through Bgp.Rib -> Algorithm ->
   Backup_group.on_create -> Provisioner.install_group, whose [send]
   feeds an Openflow.Flow_table. Phases: load every view (work: routes
   loaded per second; three times, into fresh pipelines); a churn train timed
   per update (operation); one session loss per non-transit peer —
   Listing 2's fast path, then the slow path — (side operation), each
   followed by a restore of the peer (traced only). The losses run in
   two passes over the peers, each loss after a churn slice (the windows
   of the update timings). The simulator, BFD and the router do no work
   here. *)

let entries_count = function Ctx.Full -> 250_000 | Ctx.Tiny -> 4_000
let peers_count = function Ctx.Full -> 100 | Ctx.Tiny -> 12
let train_length = function Ctx.Full -> 200_000 | Ctx.Tiny -> 4_000

(* Churn updates per slice, at least, and the seconds of run time one
   update per slice stands for on the reference host (198 slices of
   about 6 us updates, plus the loads and losses around them): a
   15-second run does 2250 updates per slice. *)
let min_slice = 100
let slice_s = 1.0 /. 150.0

(* Full loads a run does, and the routes over which a load's rate is
   sampled: [work_per_s] is the median rate over the chunks of every
   load, so a slow second of a load moves a few samples, not the
   metric. *)
let load_count = 3
let load_chunk = function Ctx.Full -> 10_000 | Ctx.Tiny -> 500

let peer_ip i = Net.Ipv4.of_octets 10 9 (i / 200) (1 + (i mod 200))
let peer_mac i = Net.Mac.of_int64 (Int64.add 0x00BB_0000_0000L (Int64.of_int (i + 1)))
let peer_asn i = Bgp.Asn.of_int (64000 + i)

let sp_load = Span.name "feed.load"
let sp_update = Span.name "feed.update"
let sp_loss = Span.name "feed.session_loss"
let sp_restore = Span.name "feed.restore"
let sp_announce = Span.name "bgp.rib.announce"
let sp_apply_update = Span.name "bgp.rib.apply_update"
let sp_changes = Span.name "supercharger.algorithm.process_changes"
let sp_peer_down = Span.name "supercharger.algorithm.process_peer_down"
let sp_fail = Span.name "supercharger.provisioner.fail_peer"
let sp_install = Span.name "supercharger.provisioner.install_group"
let sp_apply = Span.name "openflow.flow_table.apply"

type pipeline = {
  rib : Bgp.Rib.t;
  groups : Supercharger.Backup_group.t;
  algo : Supercharger.Algorithm.t;
  prov : Supercharger.Provisioner.t;
  table : Openflow.Flow_table.t;
  created : int ref;  (** groups allocated *)
  flow_mods : int ref;  (** flow-mods sent to the table *)
}

type inputs = {
  n_peers : int;
  views : (Net.Prefix.t * Bgp.Route.t) array array;  (** per peer *)
  train : Workloads.Churn.event array;
}

let pipeline n_peers =
  let table = Openflow.Flow_table.create () in
  let flow_mods = ref 0 and created = ref 0 in
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
  let groups = Supercharger.Backup_group.create (Supercharger.Vnh.create ()) in
  Supercharger.Backup_group.on_create groups (fun b ->
      incr created;
      let s = Span.enter sp_install in
      Supercharger.Provisioner.install_group prov b;
      Span.leave s);
  { rib = Bgp.Rib.create (); groups; algo = Supercharger.Algorithm.create groups; prov;
    table; created; flow_mods }

let build scale ~seed =
  let n_peers = peers_count scale in
  Ctx.timed (fun () ->
      let entries =
        Workloads.Rib_gen.generate_internet ~seed ~count:(entries_count scale)
      in
      let views =
        Array.init n_peers (fun peer ->
            let share_pct = Workloads.Rib_gen.view_share ~peers:n_peers peer in
            let attrs =
              Workloads.Churn.route_attrs ~asn:(peer_asn peer) ~next_hop:(peer_ip peer)
            in
            let view = ref [] in
            for i = Array.length entries - 1 downto 0 do
              if Workloads.Rib_gen.in_view ~peer ~share_pct i then begin
                let e = entries.(i) in
                let route =
                  Bgp.Route.make ~peer_id:peer ~peer_router_id:(peer_ip peer) (attrs e)
                in
                view := (e.Workloads.Rib_gen.prefix, route) :: !view
              end
            done;
            Array.of_list !view)
      in
      let train =
        Workloads.Churn.update_train ~seed:(Int64.add seed 1L) ~entries
          ~next_hops:(Array.init n_peers peer_ip)
          ~asns:(Array.init n_peers peer_asn) ~events:(train_length scale)
      in
      { n_peers; views; train = Array.of_list train })

let announce pl (prefix, route) =
  let s = Span.enter sp_announce in
  let change = Bgp.Rib.announce pl.rib prefix route in
  Span.leave s;
  match change with
  | None -> ()
  | Some c ->
    let s = Span.enter sp_changes in
    ignore (Supercharger.Algorithm.process_changes pl.algo [c]);
    Span.leave s

(* Loads every view, adding the routes per second of each [chunk]
   routes to [rates]. *)
let load pl inputs ~chunk rates =
  Span.new_request ();
  let r = Span.enter sp_load in
  let n = ref 0 and t0 = ref (Timing.clock ()) in
  Array.iter
    (fun view ->
      Array.iter
        (fun route ->
          announce pl route;
          incr n;
          if !n = chunk then begin
            let t = Timing.clock () in
            Stats.add rates (float_of_int chunk /. (float_of_int (t - !t0) *. 1e-9));
            n := 0;
            t0 := t
          end)
        view)
    inputs.views;
  Span.leave r

(* One churn update; returns its emissions. *)
let update pl (ev : Workloads.Churn.event) =
  Span.new_request ();
  let r = Span.enter sp_update in
  let s = Span.enter sp_apply_update in
  let changes =
    Bgp.Rib.apply_update pl.rib ~peer_id:ev.peer ~peer_router_id:(peer_ip ev.peer)
      ev.update
  in
  Span.leave s;
  let s = Span.enter sp_changes in
  let emissions = Supercharger.Algorithm.process_changes pl.algo changes in
  Span.leave s;
  Span.leave r;
  List.length emissions

(* A whole-session loss: Listing 2 re-points the groups, then the slow
   path withdraws the peer's routes. Returns the flow-mods the fast
   path issued. *)
let session_loss pl peer =
  Span.new_request ();
  let r = Span.enter sp_loss in
  let ip = peer_ip peer in
  let s = Span.enter sp_fail in
  let flow_mods =
    Supercharger.Provisioner.fail_peer pl.prov ip
      (Supercharger.Backup_group.with_member pl.groups ip)
  in
  Span.leave s;
  let s = Span.enter sp_peer_down in
  ignore (Supercharger.Algorithm.process_peer_down pl.algo pl.rib ~peer_id:peer);
  Span.leave s;
  Span.leave r;
  flow_mods

(* The controller's recovery: revive the peer, re-point every group
   whose preferred member is alive again, then re-announce the view. *)
let restore pl inputs peer =
  Span.new_request ();
  let r = Span.enter sp_restore in
  let ip = peer_ip peer in
  Supercharger.Provisioner.revive_peer pl.prov ip;
  List.iter
    (fun (b : Supercharger.Backup_group.binding) ->
      let want = List.find_opt (Supercharger.Provisioner.is_alive pl.prov) b.next_hops in
      match want, Supercharger.Provisioner.selected pl.prov b with
      | Some w, Some got when Net.Ipv4.equal w got -> ()
      | Some _, _ ->
        let s = Span.enter sp_install in
        Supercharger.Provisioner.install_group pl.prov b;
        Span.leave s
      | None, _ -> ())
    (Supercharger.Backup_group.with_member pl.groups ip);
  Array.iter (announce pl) inputs.views.(peer);
  Span.leave r

let probe_frame vmac =
  Net.Ethernet.make ~src:(Net.Mac.of_int64 0xAA01L) ~dst:vmac
    (Net.Ethernet.Ipv4
       (Net.Ipv4_packet.udp ~src:(Net.Ipv4.of_octets 192 168 0 1)
          ~dst:(Net.Ipv4.of_octets 1 0 0 1) ~src_port:1 ~dst_port:1 "x"))

(* After a session loss every group's rule must point at its first
   alive member, as the provisioner records it and as the flow table
   forwards it. One attempt per group. *)
let check_rules (sink : Metric.t) pl peer =
  List.iter
    (fun (b : Supercharger.Backup_group.binding) ->
      let want = List.find_opt (Supercharger.Provisioner.is_alive pl.prov) b.next_hops in
      let rule =
        Openflow.Flow_table.peek pl.table
          { Openflow.Ofmatch.arrival_port = 0; frame = probe_frame b.vmac }
      in
      let rule_ok =
        match want, rule with
        | Some w, Some e -> (
          match Supercharger.Provisioner.peer pl.prov w with
          | Some info ->
            List.exists
              (function
                | Openflow.Action.Set_dl_dst m -> Net.Mac.equal m info.pi_mac
                | _ -> false)
              e.Openflow.Flow_table.actions
          | None -> false)
        | _ -> false
      in
      Metric.attempt sink
        (rule_ok && Option.equal Net.Ipv4.equal want (Supercharger.Provisioner.selected pl.prov b))
        (lazy
          (Fmt.str "after the loss of peer %d, group %a does not point at its first alive member"
             peer Supercharger.Backup_group.pp_binding b)))
    (Supercharger.Backup_group.all pl.groups)



let run (ctx : Ctx.t) =
  let sink = ctx.sink in
  let inputs = Ctx.setup ctx (fun () -> build ctx.scale ~seed:(Ctx.seed64 ctx)) in
  let majors0 = Ctx.major_collections () in
  (* Load every view, transit feed first, into [load_count] fresh
     pipelines; the last is kept. The traced run traces the last load.
     Load rates are host time, not scaled to nominal speed: a load's
     rate does not follow the calibration kernel's (see the README). *)
  let routes = Array.fold_left (fun acc v -> acc + Array.length v) 0 inputs.views in
  let rates = Stats.samples () in
  let chunk = load_chunk ctx.scale in
  let load_once traced =
    let pl = pipeline inputs.n_peers in
    if traced then Ctx.traced (fun () -> load pl inputs ~chunk rates)
    else load pl inputs ~chunk rates;
    pl
  in
  for _ = 2 to load_count do
    ignore (load_once false);
    Gc.compact ()
  done;
  let pl = load_once ctx.trace in
  let rates = Stats.to_array rates in
  Metric.set sink "work_per_s" (Stats.median rates);
  Metric.detail sink "load"
    "%d routes from %d peers, %d times: %.0f routes/s, median over %d chunks of %d routes" routes
    inputs.n_peers load_count (Stats.median rates) (Array.length rates) chunk;
  (* Storm-free re-announcement of an identical view: no RIB change, so
     no emission and no new group. *)
  let created = !(pl.created) in
  let unchanged =
    Array.for_all
      (fun (prefix, route) -> Option.is_none (Bgp.Rib.announce pl.rib prefix route))
      inputs.views.(1)
  in
  Metric.attempt sink
    (unchanged && !(pl.created) = created)
    (lazy "re-announcing an identical view changed the RIB or allocated a group");
  let updates = Timing.windows () and traced_updates = Timing.windows () in
  let last = inputs.n_peers - 1 in
  let losses = Array.make_matrix 2 (last + 1) 0.0 in
  let loss_words = Stats.samples () in
  let emissions = ref 0 and applied = ref 0 and update_words = ref 0.0 in
  let visits = ref 0 and withdrawn = ref 0 and fast_flow_mods = ref 0 in
  let cursor = ref 0 in
  let timed_update samples =
    let ev = inputs.train.(!cursor mod Array.length inputs.train) in
    incr cursor;
    let t0 = Timing.clock () in
    let em = update pl ev in
    Stats.add samples (Timing.elapsed t0);
    incr applied;
    emissions := !emissions + em
  in
  let slices = 2 * last in
  (* Updates per churn slice; the traced run does half of them untraced
     and then as many traced. *)
  let per_slice = max min_slice (Ctx.repeats ctx ~unit_s:slice_s) in
  let untraced = if ctx.trace then max 1 (per_slice / 2) else per_slice in
  for pass = 0 to 1 do
    for peer = 1 to last do
      let w0 = Gc.minor_words () in
      for _ = 1 to untraced do
        timed_update updates.all
      done;
      update_words := !update_words +. (Gc.minor_words () -. w0);
      Timing.close updates;
      if ctx.trace then begin
        Ctx.traced (fun () ->
            for _ = 1 to untraced do
              timed_update traced_updates.all
            done);
        Timing.close traced_updates
      end;
      let withdrawn_here = Bgp.Rib.peer_prefix_count pl.rib ~peer_id:peer in
      let v0 = Bgp.Rib.candidate_visits pl.rib in
      let w0 = Gc.minor_words () in
      let loss_start = Span.now_ns () in
      let loss () =
        let t = Timing.clock () in
        let fm = session_loss pl peer in
        (fm, Timing.elapsed t)
      in
      let fm, dt = if ctx.trace then Ctx.traced loss else loss () in
      Stats.add loss_words (Gc.minor_words () -. w0);
      losses.(pass).(peer) <-
        Timing.normalize ~kernel:(Timing.kernel_during loss_start (Span.now_ns ())) dt;
      visits := !visits + (Bgp.Rib.candidate_visits pl.rib - v0);
      withdrawn := !withdrawn + withdrawn_here;
      fast_flow_mods := !fast_flow_mods + fm;
      check_rules sink pl peer;
      if ctx.trace then Ctx.traced (fun () -> restore pl inputs peer)
      else restore pl inputs peer
    done
  done;
  Metric.set sink "gc.major_collections"
    (float_of_int (Ctx.major_collections () - majors0));
  Metric.timing sink ~p50:"op_p50_us" ~p99:"op_p99_us" ~what:"churn update" updates;
  (* Each peer's loss is timed once per pass; its better time stands for
     it, and the side operation is the median over peers. *)
  let best = Array.init last (fun i -> Float.min losses.(0).(i + 1) losses.(1).(i + 1)) in
  Metric.set sink "side_op_p50_us" (Stats.median best *. 1e6);
  Metric.detail sink "session loss"
    "%.3f us at nominal speed: median over %d peers of the better of 2 passes"
    (Stats.median best *. 1e6) last;
  if ctx.trace then begin
    Ctx.record_overhead ctx ~untraced:updates ~traced:traced_updates;
    let roots, failed = Span.check () in
    Metric.attempts sink ~n:roots ~failed
      (lazy
        (Fmt.str "%d of %d traced requests have a span outside its parent or overlapping a sibling"
           failed roots))
  end;
  let applied = float_of_int !applied in
  Metric.set sink "supercharger.emissions_per_update" (float_of_int !emissions /. applied);
  Metric.set sink "gc.minor_words_per_op"
    (!update_words /. float_of_int (Stats.length updates.all));
  Metric.set sink "gc.minor_words_per_side_op" (Stats.median (Stats.to_array loss_words));
  Metric.set sink "bgp.rib.candidate_visits" (float_of_int !visits);
  Metric.set sink "bgp.rib.visits_per_withdrawn_prefix"
    (float_of_int !visits /. float_of_int (max 1 !withdrawn));
  Metric.set sink "supercharger.flow_mods_per_failover"
    (float_of_int !fast_flow_mods /. float_of_int slices);
  Metric.set sink "supercharger.backup_group.created" (float_of_int !(pl.created));
  Metric.set sink "openflow.flow_mods" (float_of_int !(pl.flow_mods))
