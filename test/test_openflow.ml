(* Tests for the OpenFlow substrate: match semantics, actions, flow
   table flow-mod semantics, and the switch model. *)

open Openflow

let mac = Net.Mac.of_string_exn
let ip = Net.Ipv4.of_string_exn
let pfx = Net.Prefix.v

let udp_frame ?(src = mac "00:aa:00:00:00:01") ?(dst = mac "00:bb:00:00:00:02")
    ?(nw_src = "10.0.0.1") ?(nw_dst = "1.2.3.4") ?(sport = 5001) ?(dport = 9000) () =
  Net.Ethernet.make ~src ~dst
    (Net.Ethernet.Ipv4
       (Net.Ipv4_packet.udp ~src:(ip nw_src) ~dst:(ip nw_dst) ~src_port:sport
          ~dst_port:dport "payload"))

let arp_request_frame =
  Net.Ethernet.make ~src:(mac "00:aa:00:00:00:01") ~dst:Net.Mac.broadcast
    (Net.Ethernet.Arp
       (Net.Arp.request ~sender_mac:(mac "00:aa:00:00:00:01") ~sender_ip:(ip "10.0.0.1")
          ~target_ip:(ip "10.0.0.2")))

let ctx ?(port = 0) frame = { Ofmatch.arrival_port = port; frame }

let match_tests =
  [
    Alcotest.test_case "wildcard matches everything" `Quick (fun () ->
        Alcotest.(check bool) "udp" true (Ofmatch.matches Ofmatch.any (ctx (udp_frame ())));
        Alcotest.(check bool) "arp" true (Ofmatch.matches Ofmatch.any (ctx arp_request_frame)));
    Alcotest.test_case "dl_dst matches exactly" `Quick (fun () ->
        let m = Ofmatch.dl_dst (mac "00:bb:00:00:00:02") in
        Alcotest.(check bool) "hit" true (Ofmatch.matches m (ctx (udp_frame ())));
        Alcotest.(check bool) "miss" false
          (Ofmatch.matches m (ctx (udp_frame ~dst:(mac "00:bb:00:00:00:03") ()))));
    Alcotest.test_case "in_port constrains" `Quick (fun () ->
        let m = Ofmatch.make ~in_port:2 () in
        Alcotest.(check bool) "hit" true (Ofmatch.matches m (ctx ~port:2 (udp_frame ())));
        Alcotest.(check bool) "miss" false (Ofmatch.matches m (ctx ~port:1 (udp_frame ()))));
    Alcotest.test_case "nw_dst uses prefixes" `Quick (fun () ->
        let m = Ofmatch.make ~nw_dst:(pfx "1.2.0.0/16") () in
        Alcotest.(check bool) "hit" true (Ofmatch.matches m (ctx (udp_frame ())));
        Alcotest.(check bool) "miss" false
          (Ofmatch.matches m (ctx (udp_frame ~nw_dst:"1.3.0.1" ()))));
    Alcotest.test_case "transport ports" `Quick (fun () ->
        let m = Ofmatch.make ~nw_proto:17 ~tp_dst:9000 () in
        Alcotest.(check bool) "hit" true (Ofmatch.matches m (ctx (udp_frame ())));
        Alcotest.(check bool) "miss" false
          (Ofmatch.matches m (ctx (udp_frame ~dport:9001 ()))));
    Alcotest.test_case "ARP overlay: nw_proto is the opcode" `Quick (fun () ->
        let request_rule = Ofmatch.make ~dl_type:0x0806 ~nw_proto:1 () in
        Alcotest.(check bool) "request hits" true
          (Ofmatch.matches request_rule (ctx arp_request_frame));
        let reply =
          Net.Ethernet.make ~src:(mac "00:bb:00:00:00:02") ~dst:(mac "00:aa:00:00:00:01")
            (Net.Ethernet.Arp
               (Net.Arp.reply
                  (Net.Arp.request ~sender_mac:(mac "00:aa:00:00:00:01")
                     ~sender_ip:(ip "10.0.0.1") ~target_ip:(ip "10.0.0.2"))
                  ~sender_mac:(mac "00:bb:00:00:00:02")))
        in
        Alcotest.(check bool) "reply misses" false (Ofmatch.matches request_rule (ctx reply)));
    Alcotest.test_case "ARP overlay: nw_dst is the target address" `Quick (fun () ->
        let m = Ofmatch.make ~dl_type:0x0806 ~nw_dst:(pfx "10.0.0.2/32") () in
        Alcotest.(check bool) "hit" true (Ofmatch.matches m (ctx arp_request_frame)));
    Alcotest.test_case "nw fields on ARP-incompatible rule miss" `Quick (fun () ->
        let m = Ofmatch.make ~tp_dst:9000 () in
        Alcotest.(check bool) "arp misses tp rule" false
          (Ofmatch.matches m (ctx arp_request_frame)));
    Alcotest.test_case "dl_type discriminates" `Quick (fun () ->
        let m = Ofmatch.make ~dl_type:0x0800 () in
        Alcotest.(check bool) "ip hits" true (Ofmatch.matches m (ctx (udp_frame ())));
        Alcotest.(check bool) "arp misses" false (Ofmatch.matches m (ctx arp_request_frame)));
  ]

let action_tests =
  [
    Alcotest.test_case "rewrite then output" `Quick (fun () ->
        let result =
          Action.apply
            [Action.Set_dl_dst (mac "00:bb:00:00:00:03"); Action.Output 2]
            (udp_frame ())
        in
        Alcotest.(check bool) "rewritten" true
          (Net.Mac.equal result.Action.frame.Net.Ethernet.dst (mac "00:bb:00:00:00:03"));
        Alcotest.(check (list int)) "ports" [2] result.Action.ports);
    Alcotest.test_case "empty action list drops" `Quick (fun () ->
        let result = Action.apply [] (udp_frame ()) in
        Alcotest.(check (list int)) "no ports" [] result.Action.ports;
        Alcotest.(check bool) "no flood" false result.Action.flood;
        Alcotest.(check bool) "no punt" false result.Action.to_controller);
    Alcotest.test_case "multiple outputs preserve order" `Quick (fun () ->
        let result = Action.apply [Action.Output 3; Action.Output 1] (udp_frame ()) in
        Alcotest.(check (list int)) "ports" [3; 1] result.Action.ports);
    Alcotest.test_case "nw rewrites only touch IP packets" `Quick (fun () ->
        let result = Action.apply [Action.Set_nw_dst (ip "9.9.9.9")] arp_request_frame in
        Alcotest.(check bool) "arp untouched" true
          (Net.Ethernet.equal result.Action.frame arp_request_frame);
        let result' = Action.apply [Action.Set_nw_dst (ip "9.9.9.9")] (udp_frame ()) in
        match result'.Action.frame.Net.Ethernet.payload with
        | Net.Ethernet.Ipv4 p ->
          Alcotest.(check bool) "ip rewritten" true (Net.Ipv4.equal p.dst (ip "9.9.9.9"))
        | Net.Ethernet.Arp _ -> Alcotest.fail "payload type changed");
    Alcotest.test_case "flood and controller flags" `Quick (fun () ->
        let result = Action.apply [Action.Flood; Action.To_controller] (udp_frame ()) in
        Alcotest.(check bool) "flood" true result.Action.flood;
        Alcotest.(check bool) "punt" true result.Action.to_controller);
  ]

let subsumes_tests =
  [
    Alcotest.test_case "wildcard subsumes everything" `Quick (fun () ->
        Alcotest.(check bool) "any > dl_dst" true
          (Ofmatch.subsumes Ofmatch.any (Ofmatch.dl_dst (mac "00:bb:00:00:00:02")));
        Alcotest.(check bool) "dl_dst !> any" false
          (Ofmatch.subsumes (Ofmatch.dl_dst (mac "00:bb:00:00:00:02")) Ofmatch.any));
    Alcotest.test_case "prefix fields use coverage" `Quick (fun () ->
        let wide = Ofmatch.make ~nw_dst:(pfx "1.0.0.0/8") () in
        let narrow = Ofmatch.make ~nw_dst:(pfx "1.2.0.0/16") () in
        Alcotest.(check bool) "/8 > /16" true (Ofmatch.subsumes wide narrow);
        Alcotest.(check bool) "/16 !> /8" false (Ofmatch.subsumes narrow wide);
        Alcotest.(check bool) "reflexive" true (Ofmatch.subsumes wide wide));
    Alcotest.test_case "non-strict delete removes subsumed entries" `Quick (fun () ->
        let t = Flow_table.create () in
        Flow_table.apply t
          (Flow_table.flow_mod ~priority:10 Flow_table.Add
             (Ofmatch.make ~nw_dst:(pfx "1.2.0.0/16") ())
             []);
        Flow_table.apply t
          (Flow_table.flow_mod ~priority:20 Flow_table.Add
             (Ofmatch.make ~nw_dst:(pfx "2.0.0.0/8") ())
             []);
        Flow_table.apply t
          (Flow_table.flow_mod Flow_table.Delete (Ofmatch.make ~nw_dst:(pfx "1.0.0.0/8") ()) []);
        Alcotest.(check int) "only the covered entry went" 1 (Flow_table.size t));
    Test_seed.to_alcotest
      (QCheck.Test.make ~name:"subsumption implies matching containment" ~count:300
         QCheck.(pair (pair (0 -- 4) (0 -- 4)) (0 -- 4))
         (fun ((a_idx, b_idx), f_idx) ->
           let pool =
             [|
               Ofmatch.any;
               Ofmatch.dl_dst (mac "00:bb:00:00:00:02");
               Ofmatch.make ~dl_type:0x0800 ();
               Ofmatch.make ~dl_type:0x0800 ~nw_dst:(pfx "1.0.0.0/8") ();
               Ofmatch.make ~dl_type:0x0800 ~nw_dst:(pfx "1.2.0.0/16") ~nw_proto:17 ();
             |]
           in
           let frames =
             [|
               ctx (udp_frame ());
               ctx (udp_frame ~dst:(mac "00:bb:00:00:00:02") ());
               ctx arp_request_frame;
               ctx (udp_frame ~nw_dst:"1.2.3.4" ());
               ctx (udp_frame ~nw_dst:"1.9.0.1" ());
             |]
           in
           let a = pool.(a_idx) and b = pool.(b_idx) and f = frames.(f_idx) in
           (* If a subsumes b, then b matching f implies a matches f. *)
           (not (Ofmatch.subsumes a b))
           || (not (Ofmatch.matches b f))
           || Ofmatch.matches a f));
  ]

let fm ?(priority = 100) command m actions =
  Flow_table.flow_mod ~priority command m actions

(* The reference the bucketed table is checked against: OF 1.0
   flow-mod semantics interpreted over an insertion-ordered list of
   (priority, match, install seq, actions), oldest first. *)
module Naive = struct
  type t = {
    mutable rules : (int * Ofmatch.t * int * Action.t list) list;
    mutable seq : int;
  }

  let create () = { rules = []; seq = 0 }

  let apply r (f : Flow_table.flow_mod) =
    r.seq <- r.seq + 1;
    let strict (p, m, _, _) = p = f.fm_priority && Ofmatch.equal m f.fm_match in
    (* Non-strict commands use OF 1.0 subsumption. *)
    let loose (_, m, _, _) = Ofmatch.subsumes f.fm_match m in
    let add () =
      r.rules <-
        List.filter (fun e -> not (strict e)) r.rules
        @ [(f.fm_priority, f.fm_match, r.seq, f.fm_actions)]
    in
    match f.command with
    | Flow_table.Add -> add ()
    | Flow_table.Modify | Flow_table.Modify_strict ->
      let pred = if f.command = Flow_table.Modify then loose else strict in
      if List.exists pred r.rules then
        r.rules <-
          List.map
            (fun ((p, m, sq, _) as e) -> if pred e then (p, m, sq, f.fm_actions) else e)
            r.rules
      else add ()
    | Flow_table.Delete ->
      if Ofmatch.is_any f.fm_match then r.rules <- []
      else r.rules <- List.filter (fun e -> not (loose e)) r.rules
    | Flow_table.Delete_strict -> r.rules <- List.filter (fun e -> not (strict e)) r.rules

  (* Highest priority, then earliest install. *)
  let lookup r c =
    List.fold_left
      (fun acc (p, m, sq, actions) ->
        if Ofmatch.matches m c then
          match acc with
          | Some (bp, bsq, _) when bp > p || (bp = p && bsq < sq) -> acc
          | _ -> Some (p, sq, actions)
        else acc)
      None r.rules
    |> Option.map (fun (p, _, actions) -> (p, actions))

  let size r = List.length r.rules
end

(* The table and the reference pick the same rule for [c]: same
   priority and same actions. *)
let agrees table reference c =
  match Naive.lookup reference c, Flow_table.lookup table c with
  | None, None -> true
  | Some (p, actions), Some e ->
    e.Flow_table.priority = p && List.equal Action.equal e.Flow_table.actions actions
  | Some _, None | None, Some _ -> false

let flow_table_tests =
  [
    Alcotest.test_case "higher priority wins" `Quick (fun () ->
        let t = Flow_table.create () in
        Flow_table.apply t (fm ~priority:10 Flow_table.Add Ofmatch.any [Action.Output 1]);
        Flow_table.apply t
          (fm ~priority:100 Flow_table.Add
             (Ofmatch.dl_dst (mac "00:bb:00:00:00:02"))
             [Action.Output 2]);
        match Flow_table.lookup t (ctx (udp_frame ())) with
        | Some e -> Alcotest.(check int) "prio" 100 e.Flow_table.priority
        | None -> Alcotest.fail "no match");
    Alcotest.test_case "equal priority: first installed wins" `Quick (fun () ->
        let t = Flow_table.create () in
        Flow_table.apply t (fm Flow_table.Add (Ofmatch.make ~dl_type:0x0800 ()) [Action.Output 1]);
        Flow_table.apply t (fm Flow_table.Add (Ofmatch.make ~nw_proto:17 ()) [Action.Output 2]);
        match Flow_table.lookup t (ctx (udp_frame ())) with
        | Some e -> Alcotest.(check (list int)) "first" [1]
            (List.filter_map (function Action.Output p -> Some p | _ -> None) e.Flow_table.actions)
        | None -> Alcotest.fail "no match");
    Alcotest.test_case "add replaces identical match+priority" `Quick (fun () ->
        let t = Flow_table.create () in
        let m = Ofmatch.dl_dst (mac "00:ff:00:00:00:01") in
        Flow_table.apply t (fm Flow_table.Add m [Action.Output 1]);
        Flow_table.apply t (fm Flow_table.Add m [Action.Output 2]);
        Alcotest.(check int) "one entry" 1 (Flow_table.size t);
        match Flow_table.lookup t (ctx (udp_frame ~dst:(mac "00:ff:00:00:00:01") ())) with
        | Some e ->
          Alcotest.(check bool) "new actions" true
            (List.exists (Action.equal (Action.Output 2)) e.Flow_table.actions)
        | None -> Alcotest.fail "no match");
    Alcotest.test_case "add with different priority coexists" `Quick (fun () ->
        let t = Flow_table.create () in
        let m = Ofmatch.dl_dst (mac "00:ff:00:00:00:01") in
        Flow_table.apply t (fm ~priority:10 Flow_table.Add m [Action.Output 1]);
        Flow_table.apply t (fm ~priority:20 Flow_table.Add m [Action.Output 2]);
        Alcotest.(check int) "two entries" 2 (Flow_table.size t));
    Alcotest.test_case "modify updates all matching entries" `Quick (fun () ->
        let t = Flow_table.create () in
        let m = Ofmatch.dl_dst (mac "00:ff:00:00:00:01") in
        Flow_table.apply t (fm ~priority:10 Flow_table.Add m [Action.Output 1]);
        Flow_table.apply t (fm ~priority:20 Flow_table.Add m [Action.Output 1]);
        Flow_table.apply t (fm ~priority:99 Flow_table.Modify m [Action.Output 5]);
        List.iter
          (fun e ->
            Alcotest.(check bool) "updated" true
              (List.exists (Action.equal (Action.Output 5)) e.Flow_table.actions))
          (Flow_table.entries t);
        Alcotest.(check int) "still two" 2 (Flow_table.size t));
    Alcotest.test_case "modify_strict updates only exact priority" `Quick (fun () ->
        let t = Flow_table.create () in
        let m = Ofmatch.dl_dst (mac "00:ff:00:00:00:01") in
        Flow_table.apply t (fm ~priority:10 Flow_table.Add m [Action.Output 1]);
        Flow_table.apply t (fm ~priority:20 Flow_table.Add m [Action.Output 1]);
        Flow_table.apply t (fm ~priority:20 Flow_table.Modify_strict m [Action.Output 5]);
        let actions_at prio =
          List.find_map
            (fun e -> if e.Flow_table.priority = prio then Some e.Flow_table.actions else None)
            (Flow_table.entries t)
        in
        Alcotest.(check bool) "20 updated" true
          (actions_at 20 = Some [Action.Output 5]);
        Alcotest.(check bool) "10 untouched" true (actions_at 10 = Some [Action.Output 1]));
    Alcotest.test_case "modify on absent flow behaves like add" `Quick (fun () ->
        let t = Flow_table.create () in
        Flow_table.apply t
          (fm Flow_table.Modify (Ofmatch.dl_dst (mac "00:ff:00:00:00:01")) [Action.Output 1]);
        Alcotest.(check int) "added" 1 (Flow_table.size t));
    Alcotest.test_case "delete removes all matching; strict needs priority" `Quick
      (fun () ->
        let t = Flow_table.create () in
        let m = Ofmatch.dl_dst (mac "00:ff:00:00:00:01") in
        Flow_table.apply t (fm ~priority:10 Flow_table.Add m [Action.Output 1]);
        Flow_table.apply t (fm ~priority:20 Flow_table.Add m [Action.Output 2]);
        Flow_table.apply t (fm ~priority:99 Flow_table.Delete_strict m []);
        Alcotest.(check int) "strict mismatch keeps" 2 (Flow_table.size t);
        Flow_table.apply t (fm ~priority:20 Flow_table.Delete_strict m []);
        Alcotest.(check int) "strict removes one" 1 (Flow_table.size t);
        Flow_table.apply t (fm Flow_table.Delete m []);
        Alcotest.(check int) "loose removes rest" 0 (Flow_table.size t));
    Alcotest.test_case "delete with any match empties the table" `Quick (fun () ->
        let t = Flow_table.create () in
        Flow_table.apply t (fm Flow_table.Add (Ofmatch.make ~in_port:1 ()) []);
        Flow_table.apply t (fm Flow_table.Add (Ofmatch.make ~in_port:2 ()) []);
        Flow_table.apply t (fm Flow_table.Delete Ofmatch.any []);
        Alcotest.(check int) "empty" 0 (Flow_table.size t));
    Test_seed.to_alcotest
      (QCheck.Test.make ~name:"bucketed table behaves like a naive reference" ~count:300
         (* Random flow-mod programs over a small universe of matches and
            priorities, then compare lookups against the reference. The
            universe mixes indexed (exact dl_dst) and scanned rules at
            shared priorities. *)
         QCheck.(
           pair
             (small_list (pair (pair (0 -- 4) (0 -- 7)) (pair (0 -- 3) (0 -- 4))))
             (small_list (0 -- 6)))
         (fun (program, probes) ->
           let mac2 = mac "00:bb:00:00:00:02" and mac3 = mac "00:bb:00:00:00:03" in
           let matches =
             [|
               Ofmatch.any;
               Ofmatch.dl_dst mac2;
               Ofmatch.make ~dl_type:0x0800 ();
               Ofmatch.make ~nw_proto:17 ();
               Ofmatch.make ~in_port:1 ();
               Ofmatch.dl_dst mac3;
               Ofmatch.make ~dl_dst:mac2 ~dl_type:0x0800 ();
               Ofmatch.make ~dl_dst:mac3 ~in_port:1 ();
             |]
           in
           let frames =
             [|
               ctx (udp_frame ());
               ctx ~port:1 (udp_frame ~dst:mac3 ());
               ctx arp_request_frame;
               ctx (udp_frame ~dst:mac2 ());
               ctx ~port:1 (udp_frame ());
               ctx (udp_frame ~dst:mac3 ());
               ctx
                 (Net.Ethernet.make ~src:(mac "00:aa:00:00:00:01") ~dst:mac2
                    arp_request_frame.Net.Ethernet.payload);
             |]
           in
           let reference = Naive.create () in
           let table = Flow_table.create () in
           List.iter
             (fun ((cmd_idx, m_idx), (prio_idx, act)) ->
               let command =
                 [| Flow_table.Add; Flow_table.Modify_strict; Flow_table.Delete;
                    Flow_table.Delete_strict; Flow_table.Modify |].(cmd_idx)
               in
               let f =
                 fm ~priority:(10 * (prio_idx + 1)) command matches.(m_idx)
                   [Action.Output act]
               in
               Flow_table.apply table f;
               Naive.apply reference f)
             program;
           List.for_all (fun f_idx -> agrees table reference frames.(f_idx)) probes
           && Flow_table.size table = Naive.size reference));
    Test_seed.to_alcotest
      (QCheck.Test.make ~name:"long delete runs compact without reordering" ~count:60
         (* 48 rules, half scanned and half indexed under two MACs, most
            at one shared priority, deleted one by one in random order:
            the buckets compact several times along the way, and every
            intermediate table must still pick the reference's rule. *)
         QCheck.(list_of_size (Gen.return 48) small_nat)
         (fun keys ->
           let mac2 = mac "00:bb:00:00:00:02" and mac3 = mac "00:bb:00:00:00:03" in
           let rule i =
             let k = i / 2 in
             (* for odd k the indexed rule is installed first *)
             let m =
               if (i + k) mod 2 = 0 then
                 Ofmatch.make ~in_port:(k mod 12) ~dl_type:(if k < 12 then 0x0800 else 0x0806) ()
               else Ofmatch.make ~dl_dst:(if k mod 3 = 0 then mac3 else mac2) ~in_port:k ()
             in
             fm ~priority:(if k mod 6 = 5 then 20 else 10) Flow_table.Add m [Action.Output i]
           in
           let rules = List.init 48 rule in
           let table = Flow_table.create () and reference = Naive.create () in
           List.iter (fun f -> Flow_table.apply table f; Naive.apply reference f) rules;
           let probes =
             List.concat_map
               (fun port ->
                 [ ctx ~port (udp_frame ~dst:mac2 ()); ctx ~port (udp_frame ~dst:mac3 ());
                   ctx ~port arp_request_frame ])
               (List.init 24 Fun.id)
           in
           let order =
             List.map snd
               (List.sort compare (List.mapi (fun i key -> (key, i)) keys))
           in
           List.for_all (agrees table reference) probes
           && List.for_all
                (fun i ->
                  let f = { (List.nth rules i) with Flow_table.command = Flow_table.Delete_strict } in
                  Flow_table.apply table f;
                  Naive.apply reference f;
                  Flow_table.size table = Naive.size reference
                  && List.for_all (agrees table reference) probes)
                order
           && Flow_table.size table = 0));
    Alcotest.test_case "modify keeps install position and packet counter" `Quick
      (fun () ->
        let t = Flow_table.create () in
        let first = Ofmatch.make ~dl_type:0x0800 () and second = Ofmatch.make ~nw_proto:17 () in
        Flow_table.apply t (fm Flow_table.Add first [Action.Output 1]);
        Flow_table.apply t (fm Flow_table.Add second [Action.Output 2]);
        ignore (Flow_table.lookup t (ctx (udp_frame ())));
        Flow_table.apply t (fm Flow_table.Modify_strict first [Action.Output 3]);
        Flow_table.apply t (fm Flow_table.Modify first [Action.Output 4]);
        match Flow_table.lookup t (ctx (udp_frame ())) with
        | Some e ->
          Alcotest.(check bool) "the earlier install still wins, with new actions" true
            (Ofmatch.equal e.Flow_table.ofmatch first
            && e.Flow_table.actions = [Action.Output 4]);
          Alcotest.(check int) "counter kept" 2 e.Flow_table.packets
        | None -> Alcotest.fail "no match");
    Alcotest.test_case "lookup counts packets" `Quick (fun () ->
        let t = Flow_table.create () in
        Flow_table.apply t (fm Flow_table.Add Ofmatch.any [Action.Output 1]);
        ignore (Flow_table.lookup t (ctx (udp_frame ())));
        ignore (Flow_table.lookup t (ctx (udp_frame ())));
        match Flow_table.entries t with
        | [e] -> Alcotest.(check int) "count" 2 e.Flow_table.packets
        | _ -> Alcotest.fail "one entry expected");
  ]

let make_switch ?(n_ports = 4) ?flow_mod_latency () =
  let e = Sim.Engine.create () in
  let sw = Switch.create e ?flow_mod_latency ~n_ports () in
  let received = Array.make n_ports [] in
  for p = 0 to n_ports - 1 do
    Switch.set_port_tx sw ~port:p (fun f -> received.(p) <- f :: received.(p))
  done;
  (e, sw, received)

let switch_tests =
  [
    Alcotest.test_case "forwards per flow table" `Quick (fun () ->
        let e, sw, received = make_switch () in
        Flow_table.apply (Switch.table sw)
          (fm Flow_table.Add (Ofmatch.dl_dst (mac "00:bb:00:00:00:02")) [Action.Output 1]);
        Switch.receive sw ~port:0 (udp_frame ());
        Sim.Engine.run e;
        Alcotest.(check int) "port 1 got it" 1 (List.length received.(1));
        Alcotest.(check int) "forwarded stat" 1 (Switch.packets_forwarded sw));
    Alcotest.test_case "rewrite applies before output" `Quick (fun () ->
        let e, sw, received = make_switch () in
        Flow_table.apply (Switch.table sw)
          (fm Flow_table.Add
             (Ofmatch.dl_dst (mac "00:ff:00:00:00:01"))
             [Action.Set_dl_dst (mac "00:bb:00:00:00:03"); Action.Output 2]);
        Switch.receive sw ~port:0 (udp_frame ~dst:(mac "00:ff:00:00:00:01") ());
        Sim.Engine.run e;
        match received.(2) with
        | [f] ->
          Alcotest.(check bool) "rewritten" true
            (Net.Mac.equal f.Net.Ethernet.dst (mac "00:bb:00:00:00:03"))
        | _ -> Alcotest.fail "expected one frame");
    Alcotest.test_case "flood goes everywhere except ingress" `Quick (fun () ->
        let e, sw, received = make_switch () in
        Flow_table.apply (Switch.table sw) (fm Flow_table.Add Ofmatch.any [Action.Flood]);
        Switch.receive sw ~port:1 (udp_frame ());
        Sim.Engine.run e;
        Alcotest.(check (list int)) "copies" [1; 0; 1; 1]
          (Array.to_list (Array.map List.length received)));
    Alcotest.test_case "miss without controller drops" `Quick (fun () ->
        let e, sw, received = make_switch () in
        Switch.receive sw ~port:0 (udp_frame ());
        Sim.Engine.run e;
        Alcotest.(check int) "dropped" 1 (Switch.packets_dropped sw);
        Alcotest.(check int) "nothing out" 0
          (Array.fold_left (fun acc l -> acc + List.length l) 0 received));
    Alcotest.test_case "miss with controller punts" `Quick (fun () ->
        let e, sw, _ = make_switch () in
        let punted = ref [] in
        let _send = Switch.connect_controller sw (fun m -> punted := m :: !punted) in
        Switch.receive sw ~port:3 (udp_frame ());
        Sim.Engine.run e;
        match !punted with
        | [Message.Packet_in { in_port = 3; _ }] -> ()
        | _ -> Alcotest.fail "expected one packet-in");
    Alcotest.test_case "flow mods are serialized with latency" `Quick (fun () ->
        let e, sw, _ = make_switch ~flow_mod_latency:(Sim.Time.of_ms 2) () in
        let send = Switch.connect_controller sw (fun _ -> ()) in
        let applied = ref [] in
        Switch.on_flow_mod_applied sw (fun _ ->
            applied := Sim.Time.to_ms (Sim.Engine.now e) :: !applied);
        for i = 1 to 3 do
          send
            (Message.Flow_mod
               (fm Flow_table.Add (Ofmatch.make ~in_port:i ()) [Action.Output 0]))
        done;
        Sim.Engine.run e;
        Alcotest.(check (list (float 0.001))) "2,4,6 ms" [2.0; 4.0; 6.0] (List.rev !applied));
    Alcotest.test_case "barrier replies after earlier flow mods" `Quick (fun () ->
        let e, sw, _ = make_switch ~flow_mod_latency:(Sim.Time.of_ms 2) () in
        let events = ref [] in
        let send =
          Switch.connect_controller sw (fun m ->
              match m with
              | Message.Barrier_reply xid -> events := `Barrier xid :: !events
              | _ -> ())
        in
        Switch.on_flow_mod_applied sw (fun _ -> events := `Mod :: !events);
        send (Message.Flow_mod (fm Flow_table.Add (Ofmatch.make ~in_port:1 ()) []));
        send (Message.Barrier_request 42);
        send (Message.Flow_mod (fm Flow_table.Add (Ofmatch.make ~in_port:2 ()) []));
        Sim.Engine.run e;
        Alcotest.(check bool) "order" true (List.rev !events = [`Mod; `Barrier 42; `Mod]));
    Alcotest.test_case "echo and features answered" `Quick (fun () ->
        let e, sw, _ = make_switch () in
        let got = ref [] in
        let send = Switch.connect_controller sw (fun m -> got := m :: !got) in
        send (Message.Echo_request 7);
        send Message.Features_request;
        Sim.Engine.run e;
        let has f = List.exists f !got in
        Alcotest.(check bool) "echo" true
          (has (function Message.Echo_reply 7 -> true | _ -> false));
        Alcotest.(check bool) "features" true
          (has (function Message.Features_reply { n_ports = 4; _ } -> true | _ -> false)));
    Alcotest.test_case "packet_out transmits" `Quick (fun () ->
        let e, sw, received = make_switch () in
        let send = Switch.connect_controller sw (fun _ -> ()) in
        send (Message.Packet_out { actions = [Action.Output 2]; frame = udp_frame () });
        Sim.Engine.run e;
        Alcotest.(check int) "port 2" 1 (List.length received.(2)));
    Alcotest.test_case "two controllers both get packet-ins" `Quick (fun () ->
        let e, sw, _ = make_switch () in
        let a = ref 0 and b = ref 0 in
        let (_ : Message.t -> unit) = Switch.connect_controller sw (fun _ -> incr a) in
        let (_ : Message.t -> unit) = Switch.connect_controller sw (fun _ -> incr b) in
        Switch.receive sw ~port:0 (udp_frame ());
        Sim.Engine.run e;
        Alcotest.(check (list int)) "both" [1; 1] [!a; !b]);
    Alcotest.test_case "barrier reply goes only to the asker" `Quick (fun () ->
        let e, sw, _ = make_switch () in
        let a = ref 0 and b = ref 0 in
        let send_a =
          Switch.connect_controller sw (function Message.Barrier_reply _ -> incr a | _ -> ())
        in
        let _send_b =
          Switch.connect_controller sw (function Message.Barrier_reply _ -> incr b | _ -> ())
        in
        send_a (Message.Barrier_request 1);
        Sim.Engine.run e;
        Alcotest.(check (list int)) "only a" [1; 0] [!a; !b]);
  ]

(* --- batched forwarding ------------------------------------------------- *)

(* The batch paths promise the exact per-frame semantics of their
   sequential twins — same matches, same rewrites, same counters, same
   output order — with only the scheduling amortized. Every test here
   drives a batched instance and a sequential instance with identical
   programs and compares them field by field. *)

let resolution_equal a b =
  match a, b with
  | Switch.Forward (f, ps), Switch.Forward (g, qs) ->
    Net.Ethernet.equal f g && List.equal Int.equal ps qs
  | Switch.Punt, Switch.Punt
  | Switch.Miss, Switch.Miss
  | Switch.Blackhole, Switch.Blackhole -> true
  | Switch.Forward _, _ | Switch.Punt, _ | Switch.Miss, _ | Switch.Blackhole, _
    -> false

let resolution =
  Alcotest.testable
    (fun ppf -> function
      | Switch.Forward (_, ps) ->
        Fmt.pf ppf "Forward[%a]" Fmt.(list ~sep:comma int) ps
      | Switch.Punt -> Fmt.string ppf "Punt"
      | Switch.Miss -> Fmt.string ppf "Miss"
      | Switch.Blackhole -> Fmt.string ppf "Blackhole")
    resolution_equal

(* A little rule zoo exercising every resolution outcome plus a rewrite. *)
let program_batch_rules table =
  List.iter
    (Flow_table.apply table)
    [
      fm ~priority:300 Flow_table.Add
        (Ofmatch.dl_dst (mac "00:bb:00:00:00:02"))
        [Action.Output 1];
      fm ~priority:300 Flow_table.Add
        (Ofmatch.dl_dst (mac "00:ff:00:00:00:01"))
        [Action.Set_dl_dst (mac "00:bb:00:00:00:03"); Action.Output 2];
      fm ~priority:300 Flow_table.Add
        (Ofmatch.dl_dst (mac "00:bb:00:00:00:04"))
        [Action.To_controller];
      fm ~priority:300 Flow_table.Add
        (Ofmatch.dl_dst (mac "00:bb:00:00:00:05"))
        [] (* blackhole *);
      fm ~priority:100 Flow_table.Add (Ofmatch.make ~dl_type:0x0806 ())
        [Action.Flood];
    ]

let batch_frame_pool =
  [|
    udp_frame () (* forward to port 1 *);
    udp_frame ~dst:(mac "00:ff:00:00:00:01") () (* rewrite, port 2 *);
    udp_frame ~dst:(mac "00:bb:00:00:00:04") () (* punt *);
    udp_frame ~dst:(mac "00:bb:00:00:00:05") () (* blackhole *);
    udp_frame ~dst:(mac "00:dd:00:00:00:09") () (* miss *);
    arp_request_frame (* flood *);
  |]

let batch_tests =
  [
    Alcotest.test_case "flow_table lookup_batch = sequential lookups" `Quick
      (fun () ->
        let seq = Flow_table.create () and bat = Flow_table.create () in
        program_batch_rules seq;
        program_batch_rules bat;
        let ctxs =
          Array.map (fun f -> ctx ~port:3 f)
            (Array.concat [batch_frame_pool; batch_frame_pool])
        in
        let expect = Array.map (fun c -> Flow_table.lookup seq c) ctxs in
        let got = Array.make (Array.length ctxs) None in
        Flow_table.lookup_batch bat ctxs got;
        Array.iteri
          (fun i e ->
            match e, got.(i) with
            | None, None -> ()
            | Some a, Some b ->
              Alcotest.(check int) "priority" a.Flow_table.priority
                b.Flow_table.priority;
              Alcotest.(check int) "per-entry packets" a.Flow_table.packets
                b.Flow_table.packets
            | Some _, None | None, Some _ ->
              Alcotest.failf "probe %d: hit/miss disagreement" i)
          expect;
        Alcotest.(check int) "table lookup counters" (Flow_table.lookups seq)
          (Flow_table.lookups bat));
    Alcotest.test_case "peek_batch touches no counters" `Quick (fun () ->
        let t = Flow_table.create () in
        program_batch_rules t;
        let ctxs = Array.map (fun f -> ctx f) batch_frame_pool in
        let got = Array.make (Array.length ctxs) None in
        Flow_table.peek_batch t ctxs got;
        Array.iteri
          (fun i c ->
            match Flow_table.peek t c, got.(i) with
            | None, None -> ()
            | Some a, Some b ->
              Alcotest.(check int) "same entry" a.Flow_table.priority
                b.Flow_table.priority
            | Some _, None | None, Some _ ->
              Alcotest.failf "probe %d: hit/miss disagreement" i)
          ctxs;
        Alcotest.(check int) "lookups untouched" 0 (Flow_table.lookups t);
        List.iter
          (fun e -> Alcotest.(check int) "packets untouched" 0 e.Flow_table.packets)
          (Flow_table.entries t));
    Alcotest.test_case "lookups allocate nothing at runtime" `Quick (fun () ->
        (* The runtime counterpart of the static [hot-path-alloc] gate:
           the paper's table shape, 56 per-group VMAC rules (8 peers)
           under a higher-priority ARP wildcard rule. *)
        let t = Flow_table.create () in
        Flow_table.apply t
          (fm ~priority:200 Flow_table.Add (Ofmatch.make ~dl_type:0x0806 ~nw_proto:1 ())
             [Action.To_controller]);
        let vmac i = Net.Mac.of_int64 (Int64.add 0x0200_0000_0000L (Int64.of_int i)) in
        for i = 0 to 55 do
          Flow_table.apply t
            (fm Flow_table.Add (Ofmatch.dl_dst (vmac i))
               [Action.Set_dl_dst (mac "00:bb:00:00:00:01"); Action.Output (1 + (i mod 8))])
        done;
        let ctxs =
          Array.append
            (Array.init 56 (fun i -> ctx (udp_frame ~dst:(vmac i) ())))
            [| ctx arp_request_frame; ctx (udp_frame ~dst:(mac "00:dd:00:00:00:09") ()) |]
        in
        let out = Array.make (Array.length ctxs) None in
        let rounds = 1000 in
        let words f =
          f ();
          let before = Gc.minor_words () in
          for _ = 1 to rounds do
            f ()
          done;
          Gc.minor_words () -. before
        in
        let overhead = words (fun () -> ()) in
        let peek () =
          for i = 0 to Array.length ctxs - 1 do
            ignore (Flow_table.peek t ctxs.(i))
          done
        in
        let batch () = Flow_table.lookup_batch t ctxs out in
        Alcotest.(check (float 0.)) "peek: words" overhead (words peek);
        Alcotest.(check (float 0.)) "lookup_batch: words" overhead (words batch);
        Alcotest.(check bool) "every VMAC hits its rule, the ARP rule and the miss resolve"
          true
          (Array.for_all Option.is_some (Array.sub out 0 57) && Option.is_none out.(57)));
    Alcotest.test_case "switch resolve_batch = pointwise resolve" `Quick
      (fun () ->
        let _, sw, _ = make_switch () in
        program_batch_rules (Switch.table sw);
        let got = Array.make (Array.length batch_frame_pool) Switch.Miss in
        Switch.resolve_batch sw ~port:0 batch_frame_pool got;
        Array.iteri
          (fun i f ->
            Alcotest.check resolution
              (Printf.sprintf "frame %d" i)
              (Switch.resolve sw ~port:0 f)
              got.(i))
          batch_frame_pool;
        (* resolve stays side-effect-free in batch form too *)
        Alcotest.(check int) "no lookups recorded" 0
          (Flow_table.lookups (Switch.table sw));
        Alcotest.(check int) "nothing forwarded" 0 (Switch.packets_forwarded sw));
    Test_seed.to_alcotest
      (QCheck.Test.make ~name:"receive_batch behaves like sequential receive"
         ~count:100
         QCheck.(
           list_of_size Gen.(1 -- 24)
             (int_bound (Array.length batch_frame_pool - 1)))
         (fun picks ->
           let run batched =
             let e, sw, received = make_switch () in
             program_batch_rules (Switch.table sw);
             let punts = ref 0 in
             let (_ : Message.t -> unit) =
               Switch.connect_controller sw (function
                 | Message.Packet_in _ -> incr punts
                 | _ -> ())
             in
             let frames =
               Array.of_list (List.map (fun i -> batch_frame_pool.(i)) picks)
             in
             if batched then Switch.receive_batch sw ~port:3 frames
             else Array.iter (fun f -> Switch.receive sw ~port:3 f) frames;
             Sim.Engine.run e;
             ( Array.map List.rev received,
               !punts,
               Switch.packets_forwarded sw,
               Switch.packets_dropped sw,
               Switch.packet_ins_sent sw,
               Flow_table.lookups (Switch.table sw) )
           in
           let seq_out, sp, sf, sd, si, sl = run false in
           let bat_out, bp, bf, bd, bi, bl = run true in
           Array.for_all2 (List.equal Net.Ethernet.equal) seq_out bat_out
           && sp = bp && sf = bf && sd = bd && si = bi && sl = bl));
  ]

(* --- OF 1.0 wire codec -------------------------------------------------- *)

let message_roundtrip msg =
  match Codec.decode_exact (Codec.encode msg) with
  | Ok msg' ->
    Alcotest.(check string) "round-trip"
      (Fmt.str "%a" Message.pp msg)
      (Fmt.str "%a" Message.pp msg')
  | Error e -> Alcotest.failf "decode failed: %a" Net.Wire.pp_error e

let codec_tests =
  [
    Alcotest.test_case "hello/echo/barrier round-trip" `Quick (fun () ->
        List.iter message_roundtrip
          [
            Message.Hello;
            Message.Echo_request 7;
            Message.Echo_reply 7;
            Message.Features_request;
            Message.Barrier_request 42;
            Message.Barrier_reply 42;
          ]);
    Alcotest.test_case "features reply round-trips ports" `Quick (fun () ->
        message_roundtrip
          (Message.Features_reply { datapath_id = 0x0102030405060708L; n_ports = 5 }));
    Alcotest.test_case "the paper's flow mod round-trips" `Quick (fun () ->
        message_roundtrip
          (Message.Flow_mod
             (Flow_table.flow_mod ~priority:100 ~cookie:99L Flow_table.Add
                (Ofmatch.dl_dst (mac "00:ff:00:00:00:01"))
                [Action.Set_dl_dst (mac "00:bb:00:00:00:03"); Action.Output 2])));
    Alcotest.test_case "flow mod with every field round-trips" `Quick (fun () ->
        message_roundtrip
          (Message.Flow_mod
             (Flow_table.flow_mod ~priority:2 Flow_table.Delete_strict
                (Ofmatch.make ~in_port:3
                   ~dl_src:(mac "00:aa:00:00:00:01")
                   ~dl_dst:(mac "00:bb:00:00:00:02")
                   ~dl_type:0x0800
                   ~nw_src:(pfx "10.0.0.0/8")
                   ~nw_dst:(pfx "1.2.3.4/32")
                   ~nw_proto:17 ~tp_src:5001 ~tp_dst:9000 ())
                [
                  Action.Flood; Action.To_controller;
                  Action.Set_nw_src (ip "9.9.9.9"); Action.Set_nw_dst (ip "8.8.8.8");
                  Action.Set_dl_src (mac "00:cc:00:00:00:01");
                ])));
    Alcotest.test_case "packet-in carries the real frame" `Quick (fun () ->
        message_roundtrip (Message.Packet_in { in_port = 3; frame = udp_frame () }));
    Alcotest.test_case "packet-out carries actions and frame" `Quick (fun () ->
        message_roundtrip
          (Message.Packet_out
             { actions = [Action.Output 1; Action.Flood]; frame = arp_request_frame }));
    Alcotest.test_case "wrong version rejected" `Quick (fun () ->
        let raw = Bytes.of_string (Codec.encode Message.Hello) in
        Bytes.set raw 0 '\x04';
        match Codec.decode (Bytes.to_string raw) with
        | Error (Net.Wire.Unsupported _) -> ()
        | Ok _ -> Alcotest.fail "accepted wrong version"
        | Error e -> Alcotest.failf "wrong error: %a" Net.Wire.pp_error e);
    Alcotest.test_case "truncation rejected" `Quick (fun () ->
        let raw =
          Codec.encode (Message.Packet_in { in_port = 1; frame = udp_frame () })
        in
        match Codec.decode (String.sub raw 0 (String.length raw - 4)) with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "accepted truncation");
    Alcotest.test_case "ofp_match is 40 bytes on the wire" `Quick (fun () ->
        (* flow_mod body = 40 (match) + 24 (fixed) + actions; header 8. *)
        let raw =
          Codec.encode
            (Message.Flow_mod (Flow_table.flow_mod Flow_table.Add Ofmatch.any []))
        in
        Alcotest.(check int) "length" (8 + 40 + 24) (String.length raw));
    Test_seed.to_alcotest
      (QCheck.Test.make ~name:"flow mod codec round-trip" ~count:200
         QCheck.(
           pair
             (pair (0 -- 4) (0 -- 65535))
             (pair (option (0 -- 32)) (option (0 -- 32))))
         (fun ((cmd_idx, priority), (src_len, dst_len)) ->
           let command =
             List.nth
               [
                 Flow_table.Add; Flow_table.Modify; Flow_table.Modify_strict;
                 Flow_table.Delete; Flow_table.Delete_strict;
               ]
               cmd_idx
           in
           let m =
             Ofmatch.make
               ?nw_src:(Option.map (fun l -> Net.Prefix.make (ip "10.1.2.3") l) src_len)
               ?nw_dst:(Option.map (fun l -> Net.Prefix.make (ip "4.5.6.7") l) dst_len)
               ()
           in
           let msg =
             Message.Flow_mod
               (Flow_table.flow_mod ~priority command m [Action.Output 1])
           in
           match Codec.decode_exact (Codec.encode msg) with
           | Ok (Message.Flow_mod fm') ->
             fm'.Flow_table.fm_priority = priority
             && fm'.Flow_table.command = command
             && Ofmatch.equal fm'.Flow_table.fm_match m
           | Ok _ | Error _ -> false));
  ]

let suite =
  [
    ("openflow.match", match_tests);
    ("openflow.action", action_tests);
    ("openflow.subsumes", subsumes_tests);
    ("openflow.flow_table", flow_table_tests);
    ("openflow.codec", codec_tests);
    ("openflow.switch", switch_tests);
    ("openflow.batch", batch_tests);
  ]
