(* fig4-failover: the paper's §4 lab, one opaque call per experiment.

   Operation: one supercharged experiment ([op_*]); side operation: one
   plain-router experiment ([side_op_p50_us]); work: simulation events
   per host second over both. Each experiment is a window of its own.
   Only this workload runs the simulator, BFD, the BGP session/speaker
   path, the router's serialized FIB queue and the traffic generator.
   The controller runs only in the supercharged half, so a controller
   change moves [op_*] and leaves [side_op_p50_us] alone. *)

let prefixes = function Ctx.Full -> 100_000 | Ctx.Tiny -> 2_000

(* Run seconds one supercharged-then-plain pair stands for, which sizes
   the run. A pair takes about 4.5 s at nominal speed; counting it as
   3.75 s makes a 15-second run do four pairs, whose median is steadier
   from run to run than that of three. *)
let pair_s = 3.75

let span_super = Span.name "experiments.topology.run.supercharged"
let span_plain = Span.name "experiments.topology.run.plain"

let supercharged = Experiments.Topology.Supercharged { replicas = 1 }

(* The lab exactly as [sc_lab run -n <n> --seed <seed> --mode <mode>]
   runs it: the paper's calibration from [default_params]. *)
let experiment ~n ~seed mode =
  Experiments.Topology.run
    { (Experiments.Topology.default_params ~mode ~n_prefixes:n ()) with seed }

(* Monitored-flow outages in simulated milliseconds, of the flows that
   recovered. *)
let outages_ms (r : Experiments.Topology.result) =
  Array.to_list r.convergence
  |> List.filter_map (Option.map Sim.Time.to_ms)
  |> Array.of_list

let histogram_p50_ms (r : Experiments.Topology.result) name =
  match Obs.Metrics.find_histogram r.metrics name with
  | Some h when Obs.Histogram.count h > 0 -> Obs.Histogram.percentile h 50.0 *. 1e3
  | Some _ | None -> 0.0

let counter (r : Experiments.Topology.result) name =
  float_of_int (Option.value (Obs.Metrics.find_counter r.metrics name) ~default:0)

(* What must repeat exactly for one seed: every simulated outcome. *)
let fingerprint (r : Experiments.Topology.result) =
  (Array.to_list r.convergence, r.events, r.probes, r.fib_writes, r.updates_processed)

type run = {
  result : Experiments.Topology.result;
  wall_s : float;
  minor_words : float;
}

let timed_experiment w ~n ~seed mode span =
  Span.new_request ();
  let w0 = Gc.minor_words () in
  let s = Span.enter span in
  let result, wall_s = Timing.window_op w (fun () -> experiment ~n ~seed mode) in
  Span.leave s;
  { result; wall_s; minor_words = Gc.minor_words () -. w0 }

let run (ctx : Ctx.t) =
  let sink = ctx.sink in
  let n = prefixes ctx.scale in
  let seed = Ctx.seed64 ctx in
  (* The lab builds its own state inside the timed call; what precedes
     it is the generation of its input table, timed here on its own. *)
  Ctx.setup ctx (fun () ->
      let _, gen_s = Ctx.timed (fun () -> Workloads.Rib_gen.generate ~seed ~count:n) in
      ((), gen_s));
  let sc_w = Timing.windows () and plain_w = Timing.windows () in
  let traced_sc = Timing.windows () and traced_plain = Timing.windows () in
  let pair sc_w plain_w =
    let sc = timed_experiment sc_w ~n ~seed supercharged span_super in
    let plain = timed_experiment plain_w ~n ~seed Experiments.Topology.Plain span_plain in
    (sc, plain)
  in
  let majors0 = Ctx.major_collections () in
  let pairs = Ctx.repeats ctx ~unit_s:pair_s in
  let pairs =
    if not ctx.trace then List.init pairs (fun _ -> pair sc_w plain_w)
    else begin
      (* Half the experiments untraced, then as many traced. *)
      let half = max 1 (pairs / 2) in
      ignore (List.init half (fun _ -> pair sc_w plain_w));
      let traced =
        Ctx.traced (fun () -> List.init half (fun _ -> pair traced_sc traced_plain))
      in
      Ctx.record_overhead ctx ~untraced:sc_w ~traced:traced_sc;
      traced
    end
  in
  Metric.set sink "gc.major_collections"
    (float_of_int (Ctx.major_collections () - majors0));
  (* Checks, outside every timed call: each monitored flow recovers,
     every repetition reproduces the first exactly, and the supercharged
     router converges before the plain one. *)
  let sc0, plain0 = List.hd pairs in
  List.iter
    (fun (sc, plain) ->
      List.iter
        (fun (label, r) ->
          Array.iteri
            (fun i c ->
              Metric.attempt sink (Option.is_some c)
                (lazy (Fmt.str "%s flow %d never recovered" label i)))
            r.result.Experiments.Topology.convergence)
        [("supercharged", sc); ("plain", plain)];
      Metric.attempt sink
        (fingerprint sc.result = fingerprint sc0.result
        && fingerprint plain.result = fingerprint plain0.result)
        (lazy "a repetition diverged from the first for the same seed"))
    pairs;
  let sc_ms = outages_ms sc0.result and plain_ms = outages_ms plain0.result in
  let pct a p = if Array.length a = 0 then 0.0 else Experiments.Stats.percentile a p in
  Metric.attempt sink
    (pct sc_ms 90.0 < pct plain_ms 90.0)
    (lazy "the supercharged p90 outage is not below the plain router's");
  Metric.timing sink ~p50:"op_p50_us" ~p99:"op_p99_us" ~what:"supercharged experiment" sc_w;
  Metric.timing sink ~p50:"side_op_p50_us" ~what:"plain experiment" plain_w;
  let events = sc0.result.events + plain0.result.events in
  let nominal_pair =
    Timing.normalized_time sc_w sc_w.p50 +. Timing.normalized_time plain_w plain_w.p50
  in
  Metric.set sink "work_per_s" (float_of_int events /. nominal_pair);
  let busy = List.fold_left (fun acc (sc, plain) -> acc +. sc.wall_s +. plain.wall_s) 0.0 pairs in
  Metric.set sink "sim.events_per_s" (float_of_int (events * List.length pairs) /. busy);
  Metric.set sink "sim.events" (float_of_int events);
  Metric.set sink "bgp.updates_processed" (float_of_int sc0.result.updates_processed);
  Metric.set sink "supercharger.controller.emissions"
    (counter sc0.result "controller.emissions");
  Metric.set sink "supercharger.provisioner.flow_mods"
    (counter sc0.result "provisioner.flow_mods");
  Metric.set sink "supercharger.controller.failover_p50"
    (histogram_p50_ms sc0.result "controller.failover_seconds");
  Metric.set sink "openflow.switch.flow_mods_applied"
    (counter sc0.result "switch.e3800.flow_mods_applied");
  Metric.set sink "router.fib.writes"
    (float_of_int (sc0.result.fib_writes + plain0.result.fib_writes));
  Metric.set sink "bfd.detection_p50" (histogram_p50_ms sc0.result "bfd.detection_seconds");
  Metric.set sink "trafficgen.probes" (float_of_int (sc0.result.probes + plain0.result.probes));
  Metric.set sink "trafficgen.outage_p50" (pct sc_ms 50.0);
  Metric.set sink "trafficgen.outage_p90" (pct sc_ms 90.0);
  Metric.set sink "trafficgen.plain_outage_p90" (pct plain_ms 90.0);
  let per_op f = Stats.median (Array.of_list (List.map (fun p -> (f p).minor_words) pairs)) in
  Metric.set sink "gc.minor_words_per_op" (per_op fst);
  Metric.set sink "gc.minor_words_per_side_op" (per_op snd);
  Metric.detail sink "simulated outage"
    "supercharged p50 %.3f ms p90 %.3f ms, plain p90 %.3f ms, over %d flows"
    (pct sc_ms 50.0) (pct sc_ms 90.0) (pct plain_ms 90.0) (Array.length sc_ms)
