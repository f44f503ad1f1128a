(* Aggregates every library's suite into one alcotest run. *)

let () =
  Alcotest.run "supercharged_router"
    (List.concat
       [
         Test_obs.suite;
         Test_sim.suite;
         Test_net.suite;
         Test_bgp.suite;
         Test_bfd.suite;
         Test_openflow.suite;
         Test_router.suite;
         Test_igp.suite;
         Test_topo.suite;
         Test_supercharger.suite;
         Test_controller.suite;
         Test_faults.suite;
         Test_trafficgen.suite;
         Test_workloads.suite;
         Test_experiments.suite;
         Test_core_units.suite;
         Test_codecs.suite;
         Test_check.suite;
         Test_ribscale.suite;
         Test_lint.suite;
         Test_scalars.suite;
         Test_golden.suite;
       ])
