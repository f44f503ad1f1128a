(* The benchmark's metric names, their units, and the per-run sink the
   workloads fill.

   Every workload emits every name in both lists: the end-to-end names
   are generic (each workload defines what its operation is), and a
   per-layer name reads 0 on a workload that bypasses that layer, which
   is itself the measurement ("this workload does no work there"). Layer
   self times are reported as shares of the traced run's measured wall
   time ([trace.measured_wall_s]), so a bypassed layer is a 0 % share
   rather than a constant duration. Simulated quantities carry the unit
   [sim_ms]: they are virtual time, deterministic in the seed, and must
   not move under any host-only change. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("heap_peak_mb", "MB");
    ("op_p50_us", "us");
    ("op_p99_us", "us");
    ("side_op_p50_us", "us");
    ("work_per_s", "1/s");
  ]

(* Span names (each also reported as [<name>.self_pct]). *)
let spans =
  [
    "experiments.topology.run.supercharged";
    "experiments.topology.run.plain";
    "bgp.rib.announce";
    "bgp.rib.apply_update";
    "supercharger.algorithm.process_changes";
    "supercharger.algorithm.process_peer_down";
    "supercharger.provisioner.fail_peer";
    "supercharger.provisioner.install_group";
    "openflow.flow_table.apply";
    "openflow.switch.resolve_batch";
    "router.fib.lookup_batch";
    "router.fib.write_burst";
    "check.ribscale.execute";
  ]

let per_layer =
  List.map (fun s -> (s ^ ".self_pct", "%")) spans
  @ [
      ("workloads.generate.setup_pct", "%");
      ("sim.events", "count");
      ("sim.events_per_s", "1/s");
      ("bgp.updates_processed", "count");
      ("bgp.rib.candidate_visits", "count");
      ("bgp.rib.visits_per_withdrawn_prefix", "ratio");
      ("supercharger.emissions_per_update", "ratio");
      ("supercharger.flow_mods_per_failover", "ratio");
      ("supercharger.backup_group.created", "count");
      ("supercharger.controller.emissions", "count");
      ("supercharger.provisioner.flow_mods", "count");
      ("supercharger.controller.failover_p50", "sim_ms");
      ("openflow.flow_mods", "count");
      ("openflow.switch.flow_mods_applied", "count");
      ("router.fib.writes", "count");
      ("net.flat_fib.lookups_per_s", "1/s");
      ("bfd.detection_p50", "sim_ms");
      ("trafficgen.probes", "count");
      ("trafficgen.outage_p50", "sim_ms");
      ("trafficgen.outage_p90", "sim_ms");
      ("trafficgen.plain_outage_p90", "sim_ms");
      ("check.schedules", "count");
      ("check.events", "count");
      ("check.violations", "count");
      ("gc.minor_words_per_op", "words");
      ("gc.minor_words_per_side_op", "words");
      ("gc.router.fib.lookup_batch.minor_words_per_packet", "words");
      ("gc.openflow.switch.resolve_batch.minor_words_per_packet", "words");
      ("gc.major_collections", "count");
      ("trace.overhead_pct", "%");
      ("trace.spans", "count");
      ("trace.measured_wall_s", "s");
    ]

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable first_failures : string list;  (** newest first, at most 10 *)
  values : (string, float) Hashtbl.t;
  mutable details : (string * string) list;  (** human-readable, newest first *)
}

let create () =
  { attempted = 0; failed = 0; first_failures = []; values = Hashtbl.create 64;
    details = [] }

let set t name v = Hashtbl.replace t.values name v
let get t name = Option.value (Hashtbl.find_opt t.values name) ~default:0.0

(* Counts [n] attempted operations of which [failed] failed. *)
let attempts t ~n ~failed msg =
  t.attempted <- t.attempted + n;
  if failed > 0 then begin
    t.failed <- t.failed + failed;
    if List.length t.first_failures < 10 then
      t.first_failures <- Lazy.force msg :: t.first_failures
  end

(* Counts one attempted operation, failed when [ok] is false. *)
let attempt t ok msg = attempts t ~n:1 ~failed:(if ok then 0 else 1) msg

let detail t key fmt = Fmt.kstr (fun s -> t.details <- (key, s) :: t.details) fmt

(* Sets [p50] (and [p99] when given) to the median over [w]'s windows
   of the window median (and p99) at nominal host speed, in
   microseconds. The details add the raw host-time median and the
   highest percentile with at least ten samples beyond it, over all
   samples, and the calibration kernel's median time over the windows. *)
let timing t ~p50 ?p99 ~what (w : Timing.windows) =
  let us x = x *. 1e6 in
  set t p50 (us (Timing.normalized_time w w.p50));
  Option.iter (fun name -> set t name (us (Timing.normalized_time w w.p99))) p99;
  let all = Stats.to_array w.all in
  let label, v = Stats.tail all in
  detail t what
    "%.3f us median, %.3f us p99 at nominal speed over %d windows; host time over all %d: \
     median %.3f us, %s %.3f us; kernel %.4f ms"
    (us (Timing.normalized_time w w.p50)) (us (Timing.normalized_time w w.p99))
    (Stats.length w.p50) (Array.length all) (us (Stats.median all)) label (us v)
    (1e3 *. Stats.median (Stats.to_array w.kernels))

let valid_name s =
  s <> ""
  && String.for_all
       (fun c ->
         match c with
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

(* The last line the benchmark prints. *)
let result_line t ~correct names =
  let metrics =
    List.map
      (fun (name, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
          (json_number (get t name)) unit)
      names
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct t.attempted t.failed
    (String.concat ", " metrics)
