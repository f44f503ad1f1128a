(* Tests for the differential checker itself: the flat-FIB oracle's
   decision process, schedule determinism, the shared harness's shrinker
   on synthetic step lists, the side-effect-free switch probe, and the
   end-to-end checker — including the guarded Listing 2 mutation it
   exists to catch, and a replay of its printed reproduce line. *)

let ip = Net.Ipv4.of_string_exn
let mac = Net.Mac.of_string_exn
let pfx = Net.Prefix.v

(* --- oracle ------------------------------------------------------------ *)

let make_oracle () =
  let o = Check.Oracle.create () in
  Check.Oracle.declare_peer o ~id:0 ~ip:(ip "10.0.0.2")
    ~mac:(mac "00:bb:00:00:00:02") ~port:1;
  Check.Oracle.declare_peer o ~id:1 ~ip:(ip "10.0.0.3")
    ~mac:(mac "00:bb:00:00:00:03") ~port:2;
  o

let attrs ?(pref = 100) ?(path_len = 1) nh =
  Bgp.Attributes.make ~local_pref:pref
    ~as_path:[Bgp.Attributes.Seq (List.init path_len (fun _ -> Bgp.Asn.of_int 65002))]
    ~next_hop:(ip nh) ()

let hop_nh o p =
  Option.map (fun h -> h.Check.Oracle.nh) (Check.Oracle.lookup o p)

let nh_opt = Alcotest.(option (testable Net.Ipv4.pp Net.Ipv4.equal))

let oracle_tests =
  [
    Alcotest.test_case "higher LOCAL_PREF wins" `Quick (fun () ->
        let o = make_oracle () in
        let p = pfx "1.0.0.0/24" in
        Check.Oracle.announce o ~peer:0 p (attrs ~pref:100 "10.0.0.2");
        Check.Oracle.announce o ~peer:1 p (attrs ~pref:200 "10.0.0.3");
        Alcotest.check nh_opt "peer 1" (Some (ip "10.0.0.3")) (hop_nh o p));
    Alcotest.test_case "shorter AS path breaks the tie" `Quick (fun () ->
        let o = make_oracle () in
        let p = pfx "1.0.0.0/24" in
        Check.Oracle.announce o ~peer:0 p (attrs ~path_len:3 "10.0.0.2");
        Check.Oracle.announce o ~peer:1 p (attrs ~path_len:1 "10.0.0.3");
        Alcotest.check nh_opt "peer 1" (Some (ip "10.0.0.3")) (hop_nh o p));
    Alcotest.test_case "a dead peer's routes are masked, not deleted" `Quick
      (fun () ->
        let o = make_oracle () in
        let p = pfx "1.0.0.0/24" in
        Check.Oracle.announce o ~peer:0 p (attrs ~pref:300 "10.0.0.2");
        Check.Oracle.announce o ~peer:1 p (attrs ~pref:100 "10.0.0.3");
        Check.Oracle.peer_down o 0;
        Alcotest.check nh_opt "fails over" (Some (ip "10.0.0.3")) (hop_nh o p);
        Check.Oracle.peer_down o 1;
        Alcotest.check nh_opt "uncovered" None (hop_nh o p);
        Alcotest.(check int) "no covered prefixes" 0 (Check.Oracle.covered o);
        Check.Oracle.peer_up o 0;
        Alcotest.check nh_opt "recovers the better route" (Some (ip "10.0.0.2"))
          (hop_nh o p));
    Alcotest.test_case "withdraw removes the candidate" `Quick (fun () ->
        let o = make_oracle () in
        let p = pfx "1.0.0.0/24" in
        Check.Oracle.announce o ~peer:0 p (attrs "10.0.0.2");
        Check.Oracle.withdraw o ~peer:0 p;
        Check.Oracle.withdraw o ~peer:0 p (* no-op on absent route *);
        Alcotest.check nh_opt "gone" None (hop_nh o p));
    Alcotest.test_case "lookup carries the declared data-plane coordinates"
      `Quick (fun () ->
        let o = make_oracle () in
        let p = pfx "2.0.0.0/24" in
        Check.Oracle.announce o ~peer:1 p (attrs "10.0.0.3");
        match Check.Oracle.lookup o p with
        | Some h ->
          Alcotest.(check bool) "mac" true
            (Net.Mac.equal h.Check.Oracle.mac (mac "00:bb:00:00:00:03"));
          Alcotest.(check int) "port" 2 h.Check.Oracle.port
        | None -> Alcotest.fail "no hop");
    Alcotest.test_case "prefixes come back sorted" `Quick (fun () ->
        let o = make_oracle () in
        List.iter
          (fun s -> Check.Oracle.announce o ~peer:0 (pfx s) (attrs "10.0.0.2"))
          ["9.0.0.0/24"; "1.0.0.0/24"; "5.0.0.0/16"];
        let got = Check.Oracle.prefixes o in
        Alcotest.(check (list string)) "ascending"
          ["1.0.0.0/24"; "5.0.0.0/16"; "9.0.0.0/24"]
          (List.map Net.Prefix.to_string got));
  ]

(* --- schedules and shrinking ------------------------------------------- *)

let step ev = { Check.Schedule.ev; dwell_ms = 40 }

let shrink_schedule =
  Check.Harness.shrink ~steps:(fun s -> s.Check.Schedule.steps)
    ~rebuild:(fun s steps -> { s with Check.Schedule.steps })

let schedule_tests =
  [
    Alcotest.test_case "generation is a pure function of the seed" `Quick
      (fun () ->
        let a = Check.Schedule.generate ~seed:99L () in
        let b = Check.Schedule.generate ~seed:99L () in
        let c = Check.Schedule.generate ~seed:100L () in
        Alcotest.(check string) "identical"
          (Fmt.str "%a" Check.Schedule.pp a)
          (Fmt.str "%a" Check.Schedule.pp b);
        Alcotest.(check bool) "seed matters" false
          (Fmt.str "%a" Check.Schedule.pp a = Fmt.str "%a" Check.Schedule.pp c));
    Alcotest.test_case "requested length is honoured" `Quick (fun () ->
        let s = Check.Schedule.generate ~seed:5L ~length:17 () in
        Alcotest.(check int) "17 events" 17 (Check.Schedule.length s));
    Alcotest.test_case "chaos:false draws no fault windows" `Quick (fun () ->
        (* BFD flaps stay in: they are ordinary control-plane events, not
           channel-fault windows. *)
        let s = Check.Schedule.generate ~seed:12L ~length:200 ~chaos:false () in
        List.iter
          (fun { Check.Schedule.ev; _ } ->
            match ev with
            | Check.Schedule.Of_blackout _ | Router_faults _ | Channel_dup _ ->
              Alcotest.failf "fault window in a clean schedule: %a"
                Check.Schedule.pp_event ev
            | Announce _ | Withdraw _ | Peer_down _ | Peer_up _ | Bfd_flap _ -> ())
          s.Check.Schedule.steps);
    Alcotest.test_case "shrinking keeps only what the failure needs" `Quick
      (fun () ->
        (* Synthetic failure: the predicate needs the peer-0 cut AND the
           peer-1 announcement; the other eight events are noise the
           shrinker must strip. *)
        let key_down = Check.Schedule.Peer_down 0 in
        let key_ann =
          Check.Schedule.Announce { peer = 1; prefix = 0; pref = 100; prepend = 0 }
        in
        let noise =
          [ Check.Schedule.Peer_up 1;
            Check.Schedule.Withdraw { peer = 0; prefix = 1 };
            Check.Schedule.Bfd_flap 1;
            Check.Schedule.Announce { peer = 0; prefix = 2; pref = 50; prepend = 1 };
            Check.Schedule.Of_blackout { span_ms = 10 };
            Check.Schedule.Peer_up 0;
            Check.Schedule.Withdraw { peer = 1; prefix = 3 };
            Check.Schedule.Channel_dup { peer = 0; span_ms = 10 } ]
        in
        let sched =
          { Check.Schedule.seed = 7L; n_peers = 2; n_prefixes = 4;
            steps =
              List.map step
                (List.concat
                   [ List.filteri (fun i _ -> i < 4) noise; [key_down];
                     List.filteri (fun i _ -> i >= 4) noise; [key_ann] ]) }
        in
        let execute (s : Check.Schedule.t) =
          let has e = List.exists (fun st -> st.Check.Schedule.ev = e) s.steps in
          if has key_down && has key_ann then [ "synthetic" ] else []
        in
        let shrunk, violations = shrink_schedule ~execute sched in
        Alcotest.(check int) "two events survive" 2 (Check.Schedule.length shrunk);
        Alcotest.(check (list string)) "and they still fail" [ "synthetic" ] violations);
    Alcotest.test_case "shrink is the identity on passing schedules" `Quick
      (fun () ->
        let sched = Check.Schedule.generate ~seed:3L ~length:10 () in
        let shrunk, violations = shrink_schedule ~execute:(fun _ -> []) sched in
        Alcotest.(check int) "untouched" 10 (Check.Schedule.length shrunk);
        Alcotest.(check string) "same schedule"
          (Fmt.str "%a" Check.Schedule.pp sched)
          (Fmt.str "%a" Check.Schedule.pp shrunk);
        Alcotest.(check (list string)) "no violations" [] violations);
  ]

(* --- the shared harness on synthetic step lists ------------------------ *)

(* A synthetic checker: the schedule is its own step list, and [execute]
   reports one violation naming the steps when [fails] holds. *)
let shrink_list ~fails l =
  Check.Harness.shrink ~steps:Fun.id ~rebuild:(fun _ s -> s)
    ~execute:(fun l ->
      if fails l then [ Fmt.str "[%a]" Fmt.(list ~sep:semi int) l ] else [])
    l

(* An arbitrary deterministic predicate, far from monotone in the steps
   kept: a removal can make an earlier step removable again, so only
   sweeping to a fixpoint reaches a 1-minimal result. *)
let arbitrary_fails l = l <> [] && Hashtbl.hash l mod 3 = 0

let harness_tests =
  [
    Test_seed.to_alcotest
      (QCheck.Test.make
         ~name:"shrink keeps a passing input, else still fails and is 1-minimal"
         ~count:300
         QCheck.(list_of_size Gen.(0 -- 40) (0 -- 50))
         (fun l ->
           let shrunk, violations = shrink_list ~fails:arbitrary_fails l in
           if not (arbitrary_fails l) then shrunk = l && violations = []
           else
             arbitrary_fails shrunk
             && violations = [ Fmt.str "[%a]" Fmt.(list ~sep:semi int) shrunk ]
             && List.for_all
                  (fun i ->
                    not (arbitrary_fails (List.filteri (fun j _ -> j <> i) shrunk)))
                  (List.init (List.length shrunk) Fun.id)));
    Test_seed.to_alcotest
      (QCheck.Test.make ~name:"a failure needing k of n steps shrinks to exactly k"
         ~count:300
         QCheck.(pair (1 -- 60) (small_list (0 -- 59)))
         (fun (n, picks) ->
           let keys = List.sort_uniq Int.compare (List.map (fun k -> k mod n) picks) in
           let fails l = List.for_all (fun k -> List.mem k l) keys in
           let shrunk, _ = shrink_list ~fails (List.init n Fun.id) in
           shrunk = keys));
  ]

(* --- the side-effect-free switch probe --------------------------------- *)

let probe_frame dst =
  Net.Ethernet.make ~src:(mac "00:cc:00:00:00:01") ~dst
    (Net.Ethernet.Ipv4
       (Net.Ipv4_packet.make ~src:(ip "10.0.0.100") ~dst:(ip "1.0.0.1")
          (Net.Ipv4_packet.Raw { protocol = 6; body = "" })))

let resolve_tests =
  [
    Alcotest.test_case "resolve walks the rewrite pipeline" `Quick (fun () ->
        let e = Sim.Engine.create ~seed:1L () in
        let sw = Openflow.Switch.create e ~n_ports:4 () in
        let vmac = mac "00:ff:00:00:00:01" in
        let peer_mac = mac "00:bb:00:00:00:02" in
        Openflow.Flow_table.apply (Openflow.Switch.table sw)
          (Openflow.Flow_table.flow_mod ~priority:100 Openflow.Flow_table.Add
             (Openflow.Ofmatch.dl_dst vmac)
             [Openflow.Action.Set_dl_dst peer_mac; Openflow.Action.Output 2]);
        (match Openflow.Switch.resolve sw ~port:3 (probe_frame vmac) with
        | Openflow.Switch.Forward (f, [2]) ->
          Alcotest.(check bool) "rewritten" true
            (Net.Mac.equal f.Net.Ethernet.dst peer_mac)
        | _ -> Alcotest.fail "expected Forward to port 2");
        Alcotest.(check int) "no counter side effects" 0
          (Openflow.Switch.packets_forwarded sw));
    Alcotest.test_case "miss, blackhole and punt are distinguished" `Quick
      (fun () ->
        let e = Sim.Engine.create ~seed:1L () in
        let sw = Openflow.Switch.create e ~n_ports:4 () in
        let dead = mac "00:ff:00:00:00:02" in
        let punted = mac "00:ff:00:00:00:03" in
        Openflow.Flow_table.apply (Openflow.Switch.table sw)
          (Openflow.Flow_table.flow_mod ~priority:100 Openflow.Flow_table.Add
             (Openflow.Ofmatch.dl_dst dead) []);
        Openflow.Flow_table.apply (Openflow.Switch.table sw)
          (Openflow.Flow_table.flow_mod ~priority:100 Openflow.Flow_table.Add
             (Openflow.Ofmatch.dl_dst punted)
             [Openflow.Action.To_controller]);
        let kind m =
          match Openflow.Switch.resolve sw ~port:3 (probe_frame m) with
          | Openflow.Switch.Forward _ -> "forward"
          | Openflow.Switch.Punt -> "punt"
          | Openflow.Switch.Miss -> "miss"
          | Openflow.Switch.Blackhole -> "blackhole"
        in
        Alcotest.(check string) "empty actions" "blackhole" (kind dead);
        Alcotest.(check string) "to-controller" "punt" (kind punted);
        Alcotest.(check string) "no rule" "miss" (kind (mac "00:ff:00:00:00:04")));
  ]

(* --- the harness end to end -------------------------------------------- *)

(* A failure's reproduce line, parsed the way sc_lab reads it: the
   subcommand, then [--flag value] pairs and bare [--flag]s. *)
let reproduce_args ~command line =
  let rec flags = function
    | [] -> []
    | flag :: v :: rest when not (String.starts_with ~prefix:"--" v) ->
      (flag, Some v) :: flags rest
    | flag :: rest -> (flag, None) :: flags rest
  in
  match String.split_on_char ' ' line with
  | "sc_lab" :: cmd :: args when cmd = command -> flags args
  | _ -> Alcotest.failf "not an sc_lab %s command line: %s" command line

let reproduce_value args flag =
  match List.assoc_opt flag args with
  | Some (Some v) -> v
  | Some None | None -> Alcotest.failf "reproduce line lacks %s" flag

(* The replay must regenerate the same schedule, shrink it to the same
   counterexample with the same violations, and print the same
   reproduce line again. *)
let same_failure pp (f : _ Check.Harness.failure) = function
  | None -> Alcotest.failf "replaying %S found nothing" f.reproduce
  | Some (g : _ Check.Harness.failure) ->
    Alcotest.(check string) "same schedule" (Fmt.str "%a" pp f.schedule)
      (Fmt.str "%a" pp g.schedule);
    Alcotest.(check string) "same shrunk schedule" (Fmt.str "%a" pp f.shrunk)
      (Fmt.str "%a" pp g.shrunk);
    Alcotest.(check (list string)) "same violations" f.violations g.violations;
    Alcotest.(check string) "same reproduce line" f.reproduce g.reproduce

let run_tests =
  [
    Alcotest.test_case "a hand-written failover schedule passes" `Quick (fun () ->
        let sched =
          { Check.Schedule.seed = 21L; n_peers = 2; n_prefixes = 4;
            steps =
              List.map step
                [ Check.Schedule.Announce { peer = 0; prefix = 0; pref = 200; prepend = 0 };
                  Check.Schedule.Announce { peer = 1; prefix = 0; pref = 100; prepend = 0 };
                  Check.Schedule.Announce { peer = 1; prefix = 1; pref = 100; prepend = 0 };
                  Check.Schedule.Peer_down 0;
                  Check.Schedule.Peer_up 0;
                  Check.Schedule.Withdraw { peer = 1; prefix = 1 } ] }
        in
        Alcotest.(check (list string)) "no violations" [] (Check.Run.execute sched));
    Alcotest.test_case "generated chaos schedules pass" `Quick (fun () ->
        let m =
          Check.Run.matrix ~n_peers:2 ~n_prefixes:6 ~events:15 ~seed:1L ~schedules:5 ()
        in
        match Check.Harness.run m with
        | None -> ()
        | Some f -> Alcotest.failf "checker found: %a" (Check.Harness.pp_failure m.pp) f);
    Alcotest.test_case "the skipped-rewrite mutation is caught and shrunk" `Quick
      (fun () ->
        (* Replaying the printed reproduce line must find the same
           counterexample: the line carries every flag that shaped the
           run, or the replay is a clean run and passes. *)
        let caught ?chaos ~seed ~schedules () =
          let m = Check.Run.matrix ?chaos ~mutate:true ~seed ~schedules () in
          match Check.Harness.run m with
          | None -> Alcotest.fail "mutation survived the checker"
          | Some f ->
            Alcotest.(check bool) "violations recorded" true (f.violations <> []);
            Alcotest.(check bool)
              (Fmt.str "counterexample has %d events, want <= 6"
                 (Check.Schedule.length f.shrunk))
              true
              (Check.Schedule.length f.shrunk <= 6);
            let args = reproduce_args ~command:"check" f.reproduce in
            let int flag = int_of_string (reproduce_value args flag) in
            let replay =
              Check.Run.matrix ~n_peers:(int "--peers") ~n_prefixes:(int "--prefixes")
                ~events:(int "--events")
                ~chaos:(not (List.mem_assoc "--no-chaos" args))
                ~mutate:(List.mem_assoc "--mutate" args)
                ~seed:(Int64.of_string (reproduce_value args "--seed"))
                ~schedules:(int "--schedules") ()
            in
            same_failure m.pp f (Check.Harness.run replay)
        in
        caught ~seed:7L ~schedules:25 ();
        caught ~chaos:false ~seed:3L ~schedules:40 ());
  ]

let suite =
  [
    ("check.oracle", oracle_tests);
    ("check.schedule", schedule_tests);
    ("check.harness", harness_tests);
    ("check.resolve", resolve_tests);
    ("check.run", run_tests);
  ]
