(* What every workload receives: the generated-input seed, the
   [--seconds] that size its work, whether this is the traced run, the
   input scale and the metric sink. *)

type scale =
  | Full  (** the sizes the benchmark is defined at *)
  | Tiny  (** seconds-long inputs for the benchmark's own tests *)

type t = {
  seed : int;
  seconds : float;
  trace : bool;
  scale : scale;
  sink : Metric.t;
}

let seed64 t = Int64.of_int t.seed

(* Runs [f] and returns its result with the host seconds it took. *)
let timed f =
  let t0 = Timing.clock () in
  let x = f () in
  (x, Timing.elapsed t0)

let setup_builds = 3

(* Builds the workload's state [setup_builds] times from scratch and
   keeps the last build; reports the median build time as [setup_s], in host time:
   set-up allocates most of what the run keeps, and its speed does not
   follow the calibration kernel's (see the README). [build] returns its
   state and the seconds of it spent in the [Workloads] generators,
   reported as that share of set-up. Earlier builds are released and the
   heap compacted before the next, so the peak heap reflects one state,
   not [setup_builds] of them. *)
let setup t build =
  let rec go k acc =
    Gc.compact ();
    let (state, gen_s), total_s = timed build in
    let acc = (total_s, gen_s /. total_s) :: acc in
    if k + 1 < setup_builds then go (k + 1) acc else (state, acc)
  in
  let state, samples = go 0 [] in
  let median f = Stats.median (Array.of_list (List.map f samples)) in
  let setup_s = median fst in
  Metric.set t.sink "setup_s" setup_s;
  Metric.set t.sink "workloads.generate.setup_pct" (100.0 *. median snd);
  Metric.detail t.sink "setup" "%.4f s host time, median of %d builds" setup_s setup_builds;
  state

(* How many times to repeat a unit of work that takes about
   [unit_s] seconds on the reference host, to fill [t.seconds]. The
   work of a run is fixed by its arguments, not by the clock, so a
   seed's counters repeat exactly and a slow host only makes the run
   longer. *)
let repeats t ~unit_s = max 1 (int_of_float (Float.round (t.seconds /. unit_s)))

(* Time spent with tracing on, the base of every [*.self_pct]. *)
let traced_wall = ref 0.0

let record_span_shares t =
  let totals = Span.totals () in
  let wall = !traced_wall in
  Metric.set t.sink "trace.measured_wall_s" wall;
  Metric.set t.sink "trace.spans" (float_of_int (Span.recorded ()));
  List.iter
    (fun name ->
      match Hashtbl.find_opt totals name with
      | Some s when wall > 0.0 ->
        Metric.set t.sink (name ^ ".self_pct")
          (100.0 *. float_of_int s.Span.self_ns *. 1e-9 /. wall)
      | Some _ | None -> ())
    Metric.spans

(* Runs [f] with span recording on, adding its wall time to the base of
   the self-time shares. *)
let traced f =
  Span.on := true;
  let x, dt = timed f in
  Span.on := false;
  traced_wall := !traced_wall +. dt;
  x

(* [trace.overhead_pct] from the median operation time, at nominal host
   speed, of the untraced and the traced halves of a trace-mode run. *)
let record_overhead t ~(untraced : Timing.windows) ~(traced : Timing.windows) =
  if untraced.p50.n > 0 && traced.p50.n > 0 then
    Metric.set t.sink "trace.overhead_pct"
      (100.0
      *. ((Timing.normalized_time traced traced.p50
          /. Timing.normalized_time untraced untraced.p50)
         -. 1.0))

let major_collections () = (Gc.quick_stat ()).Gc.major_collections
