(* Cross-build golden replay and the lab's allocation gate.

   The determinism tests elsewhere compare two runs of the same build;
   these pin absolute values. The golden numbers below were produced by
   the int32/int64 representation of Sim.Time, Net.Ipv4, Net.Mac and
   Net.Prefix, before they became immediate ints, so a change to a hash,
   an order or an arithmetic edge shows here as a changed simulated
   value. Regenerate them only for a change that is meant to alter
   simulated behaviour, and say so in CHANGES.md. *)

module Topology = Experiments.Topology

let ns t = Sim.Time.to_int t

let run mode n_prefixes = Topology.run (Topology.default_params ~mode ~n_prefixes ())
let supercharged = Topology.Supercharged { replicas = 1 }

type golden = {
  t_fail_ns : int;
  events : int;
  fib_writes : int;
  probes : int;
  updates_processed : int;
  flow_mods_at_failover : int;
  convergence_ns : int array;
}

(* Per-flow convergence of the plain router at 2 000 prefixes: each
   monitored prefix waits for its place in the serialized FIB queue. *)
let plain_2k =
  {
    t_fail_ns = 1_160_000_000;
    events = 37_206;
    fib_writes = 4_000;
    probes = 6_100;
    updates_processed = 0;
    flow_mods_at_failover = 0;
    convergence_ns =
      [| 392560000; 954310000; 942760000; 784840000; 503020000; 895300000; 567350000;
         640150000; 630000000; 482510000; 504700000; 827540000; 858480000; 526330000;
         442890000; 731150000; 872270000; 950950000; 591780000; 501900000; 619360000;
         466200000; 605570000; 679210000; 930720000; 683410000; 657020000; 753410000;
         946120000; 465080000; 886830000; 938280000; 952070000; 719390000; 802550000;
         761530000; 594020000; 399630000; 952910000; 923930000; 824740000; 893900000;
         917210000; 567910000; 907340000; 887110000; 923090000; 953470000; 478590000;
         576100000; 779520000; 943600000; 515620000; 434140000; 529130000; 883470000;
         692090000; 405510000; 791910000; 516250000; 543760000; 552720000; 859880000;
         577500000; 931280000; 423220000; 771960000; 576660000; 459200000; 551880000;
         589820000; 578900000; 572390000; 399350000; 701120000; 392840000; 586460000;
         651630000; 828660000; 838530000; 884590000; 587580000; 467600000; 572950000;
         411670000; 714630000; 493430000; 545720000; 396200000; 721630000; 826980000;
         551600000; 581140000; 510300000; 630560000; 680890000; 743540000; 507780000;
         722470000; 456610000 |];
  }

(* Supercharged: one group re-point recovers every flow at once. *)
let supercharged_2k =
  {
    t_fail_ns = 2_160_000_000;
    events = 45_160;
    fib_writes = 5_799;
    probes = 6_085;
    updates_processed = 4_000;
    flow_mods_at_failover = 2;
    convergence_ns = Array.make 100 116_130_000;
  }

let check_golden name (want : golden) (r : Topology.result) =
  let int field = Alcotest.(check int) (name ^ ": " ^ field) in
  int "t_fail (ns)" want.t_fail_ns (ns r.t_fail);
  int "events" want.events r.events;
  int "fib_writes" want.fib_writes r.fib_writes;
  int "probes" want.probes r.probes;
  int "updates_processed" want.updates_processed r.updates_processed;
  int "flow_mods_at_failover" want.flow_mods_at_failover r.flow_mods_at_failover;
  Alcotest.(check (array int))
    (name ^ ": convergence per flow (ns)")
    want.convergence_ns
    (Array.map (function Some t -> ns t | None -> -1) r.convergence)

let golden_tests =
  [
    Alcotest.test_case "plain lab at 2k prefixes, seed 42" `Quick (fun () ->
        check_golden "plain" plain_2k (run Topology.Plain 2_000));
    Alcotest.test_case "supercharged lab at 2k prefixes, seed 42" `Quick (fun () ->
        check_golden "supercharged" supercharged_2k (run supercharged 2_000));
    Alcotest.test_case "ribscale canary: shrunk schedule and reproduce line" `Quick
      (fun () ->
        let m = Check.Ribscale.matrix ~mutate:true ~seed:7L ~entries:2_000 ~schedules:3 () in
        match Check.Harness.run m with
        | None -> Alcotest.fail "the armed bug survived"
        | Some f ->
          Alcotest.(check string) "shrunk schedule"
            "ribscale schedule seed=7 peers=12 events=1\n\
            \   1. churn sub-seed=1019122909 events=127\n"
            (Fmt.str "%a" m.pp f.shrunk);
          Alcotest.(check string) "reproduce line"
            "sc_lab ribscale-check --seed 7 --schedules 1 --entries 2000 --peers 12 \
             --events 10 --mutate"
            f.reproduce;
          Alcotest.(check (list string)) "violations"
            [
              "after step 1 (churn sub-seed=1019122909 events=127): ranking diverges \
               at 1.49.0.0/17: rib peers [0;\n\
               1], oracle peers [1]";
            ]
            f.violations);
  ]

(* Minor words per simulated event of a whole lab run at 10k prefixes
   (setup, load, failover and measurement). Allocation is a pure
   function of the seed and the build, so unlike a wall-clock rate this
   bound holds on any machine. Each bound is 1.10x the value measured
   when it was set (see CHANGES.md); a change that allocates more per
   event must lower the count again or justify raising the bound. *)
let words_per_event mode =
  Gc.full_major ();
  let before = Gc.minor_words () in
  let r = run mode 10_000 in
  (Gc.minor_words () -. before) /. Float.of_int r.events

let alloc_gate name mode ~measured =
  Alcotest.test_case (name ^ " lab: minor words per event at 10k") `Quick (fun () ->
      let bound = 1.10 *. measured in
      let w = words_per_event mode in
      if w > bound then
        Alcotest.failf "%s: %.2f minor words per event, bound %.2f (1.10 x %.2f)" name w
          bound measured)

let alloc_tests =
  [
    alloc_gate "plain" Topology.Plain ~measured:101.05;
    alloc_gate "supercharged" supercharged ~measured:125.12;
  ]

let suite = [ ("golden.replay", golden_tests); ("golden.alloc_gate", alloc_tests) ]
