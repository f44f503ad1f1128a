(* Tests for the traffic generator/measurement substrate. *)

let ip = Net.Ipv4.of_string_exn

let flows_of addrs =
  Array.of_list
    (List.mapi (fun index a -> { Trafficgen.Flow.index; dst = ip a }) addrs)

let sink_tests =
  [
    Alcotest.test_case "CAM matches expected destinations only" `Quick (fun () ->
        let e = Sim.Engine.create () in
        let sink = Trafficgen.Sink.create e ~flows:(flows_of ["1.0.0.1"; "2.0.0.1"]) in
        Trafficgen.Sink.deliver sink (ip "1.0.0.1");
        Trafficgen.Sink.deliver sink (ip "9.9.9.9");
        Alcotest.(check int) "flow 0" 1 (Trafficgen.Sink.arrivals sink 0);
        Alcotest.(check int) "flow 1" 0 (Trafficgen.Sink.arrivals sink 1);
        Alcotest.(check int) "stray" 1 (Trafficgen.Sink.strays sink);
        Alcotest.(check int) "total" 2 (Trafficgen.Sink.total sink));
    Alcotest.test_case "max gap tracks the largest inter-arrival" `Quick (fun () ->
        let e = Sim.Engine.create () in
        let sink = Trafficgen.Sink.create e ~flows:(flows_of ["1.0.0.1"]) in
        let deliver_at ms =
          ignore
            (Sim.Engine.schedule_at e (Sim.Time.of_ms ms) (fun () ->
                 Trafficgen.Sink.deliver sink (ip "1.0.0.1")))
        in
        List.iter deliver_at [0; 10; 15; 100; 102];
        Sim.Engine.run e;
        Alcotest.(check int64) "85ms" (Sim.Time.to_ns (Sim.Time.of_ms 85))
          (Sim.Time.to_ns (Trafficgen.Sink.max_gap sink 0));
        Alcotest.(check (option int64)) "last at 102" (Some (Sim.Time.to_ns (Sim.Time.of_ms 102)))
          (Option.map Sim.Time.to_ns (Trafficgen.Sink.last_arrival sink 0)));
    Alcotest.test_case "reset_gaps clears statistics but not counters" `Quick
      (fun () ->
        let e = Sim.Engine.create () in
        let sink = Trafficgen.Sink.create e ~flows:(flows_of ["1.0.0.1"]) in
        Trafficgen.Sink.deliver sink (ip "1.0.0.1");
        ignore (Sim.Engine.schedule_at e (Sim.Time.of_ms 50) (fun () ->
            Trafficgen.Sink.deliver sink (ip "1.0.0.1")));
        Sim.Engine.run e;
        Trafficgen.Sink.reset_gaps sink;
        Alcotest.(check int64) "gap zero" 0L (Sim.Time.to_ns (Trafficgen.Sink.max_gap sink 0));
        Alcotest.(check int) "count kept" 2 (Trafficgen.Sink.arrivals sink 0));
  ]

let source_tests =
  [
    Alcotest.test_case "streams every flow on the grid" `Quick (fun () ->
        let e = Sim.Engine.create () in
        let flows = flows_of ["1.0.0.1"; "2.0.0.1"] in
        let sent = ref [] in
        let source =
          Trafficgen.Source.create e ~grid:(Sim.Time.of_ms 1) ~flows
            ~send:(fun f -> sent := (f.Trafficgen.Flow.index, Sim.Time.to_ms (Sim.Engine.now e)) :: !sent)
            ()
        in
        Trafficgen.Source.start source;
        Sim.Engine.run ~until:(Sim.Time.of_ms 3) e;
        Trafficgen.Source.stop source;
        Alcotest.(check int) "6 packets" 6 (List.length !sent);
        Alcotest.(check int) "counter" 6 (Trafficgen.Source.packets_sent source);
        Sim.Engine.run ~until:(Sim.Time.of_ms 10) e;
        Alcotest.(check int) "stopped" 6 (List.length !sent));
    Alcotest.test_case "start is idempotent" `Quick (fun () ->
        let e = Sim.Engine.create () in
        let source =
          Trafficgen.Source.create e ~grid:(Sim.Time.of_ms 1) ~flows:(flows_of ["1.0.0.1"])
            ~send:(fun _ -> ()) ()
        in
        Trafficgen.Source.start source;
        Trafficgen.Source.start source;
        Sim.Engine.run ~until:(Sim.Time.of_ms 2) e;
        Alcotest.(check int) "no double stream" 2 (Trafficgen.Source.packets_sent source));
  ]

(* A loopback harness: probes are "delivered" to the sink after a fixed
   path delay unless the path is down. *)
let make_loopback ?(delay = Sim.Time.of_us 30) () =
  let e = Sim.Engine.create () in
  let flows = flows_of ["1.0.0.1"; "2.0.0.1"] in
  let sink = Trafficgen.Sink.create e ~flows in
  let path_up = ref true in
  let send (f : Trafficgen.Flow.t) =
    let up_at_send = !path_up in
    ignore
      (Sim.Engine.schedule_after e delay (fun () ->
           if up_at_send && !path_up then Trafficgen.Sink.deliver sink f.dst))
  in
  let monitor =
    Trafficgen.Monitor.create e ~grid:(Sim.Time.of_us 70) ~sink ~send ~flows ()
  in
  (e, sink, monitor, path_up)

let monitor_tests =
  [
    Alcotest.test_case "probe_flow sends at the next grid point" `Quick (fun () ->
        let e, sink, monitor, _ = make_loopback () in
        ignore sink;
        Sim.Engine.run ~until:(Sim.Time.of_us 100) e;
        Trafficgen.Monitor.probe_flow monitor 0;
        Sim.Engine.run e;
        Alcotest.(check int) "one probe" 1 (Trafficgen.Monitor.probes_sent monitor);
        match Trafficgen.Sink.last_arrival sink 0 with
        | Some t ->
          Alcotest.(check int64) "grid-aligned + delay"
            (Sim.Time.to_ns (Sim.Time.of_us 170))
            (Sim.Time.to_ns t)
        | None -> Alcotest.fail "no delivery");
    Alcotest.test_case "probes within one slot are deduplicated" `Quick (fun () ->
        let _, _, monitor, _ = make_loopback () in
        Trafficgen.Monitor.probe_flow monitor 0;
        Trafficgen.Monitor.probe_flow monitor 0;
        Trafficgen.Monitor.probe_flow monitor 0;
        Alcotest.(check int) "scheduled once" 0 (Trafficgen.Monitor.probes_sent monitor));
    Alcotest.test_case "probe_prefix selects matching flows" `Quick (fun () ->
        let e, sink, monitor, _ = make_loopback () in
        Trafficgen.Monitor.probe_prefix monitor (Net.Prefix.v "2.0.0.0/8");
        Sim.Engine.run e;
        Alcotest.(check int) "flow 1 only" 0 (Trafficgen.Sink.arrivals sink 0);
        Alcotest.(check int) "flow 1 got it" 1 (Trafficgen.Sink.arrivals sink 1));
    Alcotest.test_case "window sends one probe per flow per slot" `Quick (fun () ->
        let e, _, monitor, _ = make_loopback () in
        Trafficgen.Monitor.window monitor ~from_:Sim.Time.zero ~until:(Sim.Time.of_us 280);
        Sim.Engine.run e;
        (* Slots 0,70,140,210,280 = 5 slots x 2 flows. *)
        Alcotest.(check int) "10 probes" 10 (Trafficgen.Monitor.probes_sent monitor));
    Alcotest.test_case "straddling gap is the outage, later gaps ignored" `Quick
      (fun () ->
        let e, _, monitor, path_up = make_loopback () in
        (* Healthy deliveries up to 1ms, failure at 1ms, recovery probe at
           50ms, another sparse probe at 300ms. *)
        Trafficgen.Monitor.window monitor ~from_:Sim.Time.zero ~until:(Sim.Time.of_ms 1);
        let t_fail = Sim.Time.of_ms 1 in
        Trafficgen.Monitor.arm_failure monitor ~at:t_fail;
        ignore (Sim.Engine.schedule_at e t_fail (fun () -> path_up := false));
        ignore (Sim.Engine.schedule_at e (Sim.Time.of_ms 49) (fun () -> path_up := true));
        ignore
          (Sim.Engine.schedule_at e (Sim.Time.of_ms 50) (fun () ->
               Trafficgen.Monitor.probe_all monitor));
        ignore
          (Sim.Engine.schedule_at e (Sim.Time.of_ms 300) (fun () ->
               Trafficgen.Monitor.probe_all monitor));
        Sim.Engine.run e;
        (match Trafficgen.Monitor.verdict monitor 0 with
        | Trafficgen.Monitor.Recovered gap ->
          let ms = Sim.Time.to_ms gap in
          Alcotest.(check bool) (Fmt.str "gap ~49ms (%.3f)" ms) true
            (ms > 48.0 && ms < 51.0)
        | _ -> Alcotest.fail "expected recovery");
        Alcotest.(check bool) "alive since failure" true
          (Trafficgen.Monitor.all_alive_since monitor t_fail));
    Alcotest.test_case "unaffected flow reports Unaffected" `Quick (fun () ->
        let e, _, monitor, _ = make_loopback () in
        Trafficgen.Monitor.window monitor ~from_:Sim.Time.zero ~until:(Sim.Time.of_ms 2);
        Trafficgen.Monitor.arm_failure monitor ~at:(Sim.Time.of_ms 1);
        Sim.Engine.run e;
        Alcotest.(check bool) "unaffected" true
          (Trafficgen.Monitor.verdict monitor 0 = Trafficgen.Monitor.Unaffected));
    Alcotest.test_case "black-holed flow reports Black_holed" `Quick (fun () ->
        let e, _, monitor, path_up = make_loopback () in
        Trafficgen.Monitor.window monitor ~from_:Sim.Time.zero ~until:(Sim.Time.of_ms 1);
        let t_fail = Sim.Time.of_ms 1 in
        Trafficgen.Monitor.arm_failure monitor ~at:t_fail;
        ignore (Sim.Engine.schedule_at e t_fail (fun () -> path_up := false));
        ignore
          (Sim.Engine.schedule_at e (Sim.Time.of_ms 50) (fun () ->
               Trafficgen.Monitor.probe_all monitor));
        Sim.Engine.run e;
        Alcotest.(check bool) "black-holed" true
          (Trafficgen.Monitor.verdict monitor 0 = Trafficgen.Monitor.Black_holed);
        Alcotest.(check bool) "not alive" false
          (Trafficgen.Monitor.all_alive_since monitor t_fail);
        Alcotest.(check (option int64)) "convergence none" None
          (Option.map Sim.Time.to_ns
             (Trafficgen.Monitor.convergence monitor ~failed_at:t_fail 0)));
    Alcotest.test_case "an enabled trace logs every probe send and arrival" `Quick
      (fun () ->
        let e, _, monitor, _ = make_loopback () in
        Trafficgen.Monitor.window monitor ~from_:Sim.Time.zero ~until:(Sim.Time.of_us 70);
        Sim.Engine.run e;
        let lines category =
          List.map
            (fun (en : Sim.Trace.entry) -> (Sim.Time.to_ns en.time, en.message))
            (Sim.Trace.find (Sim.Engine.trace e) ~category)
        in
        let us n = Sim.Time.to_ns (Sim.Time.of_us n) in
        Alcotest.(check (list (pair int64 string))) "probe lines"
          [ (us 0, "send flow#0"); (us 0, "send flow#1");
            (us 70, "send flow#0"); (us 70, "send flow#1") ]
          (lines "probe");
        Alcotest.(check (list (pair int64 string))) "sink lines"
          [ (us 30, "arrival flow#0"); (us 30, "arrival flow#1");
            (us 100, "arrival flow#0"); (us 100, "arrival flow#1") ]
          (lines "sink"));
    Alcotest.test_case "a disabled trace logs nothing while probes flow" `Quick
      (fun () ->
        let e, sink, monitor, _ = make_loopback () in
        Sim.Trace.set_enabled (Sim.Engine.trace e) false;
        Trafficgen.Monitor.window monitor ~from_:Sim.Time.zero ~until:(Sim.Time.of_us 70);
        Sim.Engine.run e;
        Alcotest.(check int) "probes sent" 4 (Trafficgen.Monitor.probes_sent monitor);
        Alcotest.(check int) "arrivals" 4 (Trafficgen.Sink.total sink);
        Alcotest.(check int) "nothing traced" 0 (Sim.Trace.total (Sim.Engine.trace e)));
  ]

let suite =
  [
    ("trafficgen.sink", sink_tests);
    ("trafficgen.source", source_tests);
    ("trafficgen.monitor", monitor_tests);
  ]
