(* ribscale-check: the RIB differential checker as a workload.

   Check.Ribscale.execute runs generated schedules over one
   Internet-shape table with skewed views: it preloads both the RIB and
   the naive oracle, then checks full ranked equivalence after every
   event. Operation: one schedule; side operation: one empty schedule
   (preload and the initial equivalence check alone); work: schedule
   events verified per second. Only this workload runs the [check]
   oracle layer, and it uses Bgp.Rib read-heavily where internet-feed is
   write-heavy. *)

let entries_count = function Ctx.Full -> 20_000 | Ctx.Tiny -> 1_000
let n_peers = function Ctx.Full -> 100 | Ctx.Tiny -> 12
let events = 10
let schedules = 64

(* Host seconds of one schedule and one empty schedule on the reference
   host, which sizes the run. *)
let round_s = 1.8

let sp_execute = Span.name "check.ribscale.execute"

type state = {
  entries : Workloads.Rib_gen.entry array;
  schedules : Check.Ribscale.t array;
  empty : Check.Ribscale.t;
}

let build scale ~seed =
  let entries, gen_s =
    Ctx.timed (fun () ->
        Workloads.Rib_gen.generate_internet ~seed ~count:(entries_count scale))
  in
  let n_peers = n_peers scale in
  let schedules =
    Array.init schedules (fun k ->
        Check.Ribscale.generate ~seed:(Int64.add seed (Int64.of_int k)) ~n_peers
          ~length:events ())
  in
  ({ entries; schedules; empty = { Check.Ribscale.seed; n_peers; steps = [] } }, gen_s)

let execute st schedule =
  Span.new_request ();
  let s = Span.enter sp_execute in
  let violations = Check.Ribscale.execute ~entries:st.entries schedule in
  Span.leave s;
  violations

let run (ctx : Ctx.t) =
  let sink = ctx.sink in
  let st = Ctx.setup ctx (fun () -> build ctx.scale ~seed:(Ctx.seed64 ctx)) in
  (* Every schedule, and every empty schedule, is a window of its own. *)
  let full = Timing.windows () and empty = Timing.windows () and rates = Stats.samples () in
  let traced_full = Timing.windows () in
  let checked_events = ref 0 and violations = ref 0 and words = ref 0.0 in
  let majors0 = Ctx.major_collections () in
  let round k ~traced =
    let schedule = st.schedules.(k mod Array.length st.schedules) in
    let w0 = Gc.minor_words () in
    let w = if traced then traced_full else full in
    let v, dt = Timing.window_op w (fun () -> execute st schedule) in
    words := !words +. (Gc.minor_words () -. w0);
    let n = Check.Ribscale.length schedule in
    if not traced then
      Stats.add rates
        (float_of_int n /. Timing.normalize ~kernel:full.kernels.data.(full.kernels.n - 1) dt);
    checked_events := !checked_events + n;
    violations := !violations + List.length v;
    (* Execution stops at the first divergence: one failed event. *)
    Metric.attempts sink ~n ~failed:(if v = [] then 0 else 1)
      (lazy (Fmt.str "schedule %d: %s" k (String.concat "; " v)));
    let v =
      if traced then execute st st.empty
      else fst (Timing.window_op empty (fun () -> execute st st.empty))
    in
    violations := !violations + List.length v;
    Metric.attempt sink (v = []) (lazy (String.concat "; " v))
  in
  let rounds = Ctx.repeats ctx ~unit_s:round_s in
  let rounds = if ctx.trace then max 1 (rounds / 2) else rounds in
  let k = ref 0 in
  for _ = 1 to rounds do
    round !k ~traced:false;
    incr k
  done;
  if ctx.trace then begin
    Ctx.traced (fun () ->
        for _ = 1 to Stats.length full.all do
          round !k ~traced:true;
          incr k
        done);
    Ctx.record_overhead ctx ~untraced:full ~traced:traced_full
  end;
  Metric.set sink "gc.major_collections"
    (float_of_int (Ctx.major_collections () - majors0));
  Metric.timing sink ~p50:"op_p50_us" ~p99:"op_p99_us" ~what:"schedule" full;
  Metric.timing sink ~p50:"side_op_p50_us" ~what:"empty schedule" empty;
  Metric.set sink "work_per_s" (Stats.median (Stats.to_array rates));
  Metric.set sink "check.schedules" (float_of_int !k);
  Metric.set sink "check.events" (float_of_int !checked_events);
  Metric.set sink "check.violations" (float_of_int !violations);
  Metric.set sink "gc.minor_words_per_op" (!words /. float_of_int !k)
