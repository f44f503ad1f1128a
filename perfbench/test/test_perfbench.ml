(* The benchmark's own tests, on seconds-long inputs.

     test_perfbench.exe <path to sc_lab> <path to BENCHMARK.json>

   A run with a near-zero time budget does each workload's minimum fixed
   work, so its counters and simulated metrics are deterministic. *)

open Perfbench

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" what
  end
  else Printf.printf "ok   %s\n%!" what

let workloads = List.map fst Bench.workloads

let run ?(trace = false) ?(seed = 7) workload =
  Bench.execute ~workload ~seed ~seconds:1e-6 ~trace ~scale:Ctx.Tiny ()

(* Metrics that must repeat exactly for one seed: counts, ratios of
   counts, and simulated time. *)
let deterministic (sink : Metric.t) =
  List.filter_map
    (fun (name, unit) ->
      if List.mem unit ["count"; "ratio"; "sim_ms"] && name <> "gc.major_collections"
      then Some (name, Metric.get sink name)
      else None)
    Metric.per_layer

let test_same_seed () =
  List.iter
    (fun w ->
      let a = run ~trace:true w and b = run ~trace:true w in
      check (w ^ ": same seed, same counters and simulated metrics")
        (deterministic a = deterministic b);
      check (w ^ ": every output check passed")
        (a.Metric.failed = 0 && a.Metric.attempted > 0))
    workloads

(* Different seeds must give different generated inputs. *)
let test_seed_changes_inputs () =
  let differ build = build ~seed:1L <> build ~seed:2L in
  check "fig4-failover: the seed changes the lab's table"
    (differ (fun ~seed -> Workloads.Rib_gen.generate ~seed ~count:(Fig4.prefixes Ctx.Tiny)));
  check "internet-feed: the seed changes the views and the churn train"
    (differ (fun ~seed ->
         let st, _ = Feed.build Ctx.Tiny ~seed in
         (Array.map (Array.map fst) st.Feed.views, Array.length st.Feed.train)));
  check "forwarding: the seed changes the traffic"
    (differ (fun ~seed ->
         let st, _ = Forwarding.build Ctx.Tiny ~seed in
         Array.map Net.Ipv4.to_string st.Forwarding.stream));
  check "ribscale-check: the seed changes the schedules"
    (differ (fun ~seed ->
         let st, _ = Ribcheck.build Ctx.Tiny ~seed in
         Array.map (Fmt.str "%a" Check.Ribscale.pp) st.Ribcheck.schedules))

(* The span check flags a child that outlives its parent and a child
   that starts before its previous sibling stopped, once per root. *)
let test_span_check () =
  let record () =
    Span.reset ();
    Span.on := true;
    let nm = Span.name "test.span" in
    for _ = 1 to 2 do
      let r = Span.enter nm in
      let a = Span.enter nm in
      Span.leave a;
      let b = Span.enter nm in
      Span.leave b;
      Span.leave r
    done;
    Span.on := false
  in
  record ();
  check "span check: a well-formed recording passes" (Span.check () = (2, 0));
  record ();
  !Span.stops.(1) <- !Span.stops.(2) + 1;
  check "span check: overlapping siblings fail their root" (Span.check () = (2, 1));
  record ();
  !Span.stops.(5) <- !Span.stops.(3) + 1;
  check "span check: a child outliving its parent fails its root" (Span.check () = (2, 1));
  Span.reset ()

let test_names () =
  List.iter
    (fun (name, unit) ->
      check (Printf.sprintf "metric %s: valid name with a unit" name)
        (Metric.valid_name name && unit <> ""))
    (Metric.end_to_end @ Metric.per_layer)

(* The names of the entries of one top-level list of BENCHMARK.json,
   found by scanning from its key to the next key of [stops]. *)
let names_in text ~key ~stops =
  let find_from i sub =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length text then None
      else if String.sub text i n = sub then Some i
      else go (i + 1)
    in
    go i
  in
  match find_from 0 (Printf.sprintf "%S" key) with
  | None -> []
  | Some start ->
    let stop =
      List.fold_left
        (fun acc k ->
          match find_from start (Printf.sprintf "%S" k) with
          | Some i when i > start -> min acc i
          | Some _ | None -> acc)
        (String.length text) stops
    in
    let rec collect i acc =
      match find_from i "\"name\": \"" with
      | Some j when j < stop ->
        let v = j + String.length "\"name\": \"" in
        let e = String.index_from text v '"' in
        collect e (String.sub text v (e - v) :: acc)
      | Some _ | None -> List.rev acc
    in
    collect start []

let test_benchmark_json path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  let keys = ["command"; "paths"; "run_seconds"; "workloads"; "end_to_end"; "per_layer"] in
  let section key = names_in text ~key ~stops:(List.filter (( <> ) key) keys) in
  check "BENCHMARK.json lists the benchmark's workloads"
    (List.sort compare (section "workloads") = List.sort compare workloads);
  check "BENCHMARK.json lists every end-to-end metric emitted"
    (section "end_to_end" = List.map fst Metric.end_to_end);
  check "BENCHMARK.json lists every per-layer metric emitted"
    (section "per_layer" = List.map fst Metric.per_layer);
  List.iter
    (fun w ->
      let sink = run w in
      List.iter
        (fun name ->
          check
            (Printf.sprintf "%s emits %s, above 0" w name)
            (Metric.get sink name > 0.0))
        (section "end_to_end"))
    workloads

(* The lab the benchmark runs is the one [sc_lab run] runs: same
   summary, same event and probe counts, for both modes. *)
let test_matches_sc_lab sc_lab =
  List.iter
    (fun (mode, r) ->
      let out = Printf.sprintf "sc_lab_%s.txt" mode in
      let code =
        Sys.command
          (Printf.sprintf "%s run -n %d --seed 7 --mode %s > %s" (Filename.quote sc_lab)
             (Fig4.prefixes Ctx.Tiny) mode (Filename.quote out))
      in
      let lines = In_channel.with_open_bin out In_channel.input_lines in
      Sys.remove out;
      let expected =
        [
          Fmt.str "%a" Experiments.Topology.pp_result r;
          Printf.sprintf "events=%d probes=%d" r.Experiments.Topology.events
            r.Experiments.Topology.probes;
        ]
      in
      check
        (Printf.sprintf "fig4-failover %s lab equals sc_lab run" mode)
        (code = 0 && lines = expected))
    [
      ("supercharged", Fig4.experiment ~n:(Fig4.prefixes Ctx.Tiny) ~seed:7L Fig4.supercharged);
      ("plain", Fig4.experiment ~n:(Fig4.prefixes Ctx.Tiny) ~seed:7L Experiments.Topology.Plain);
    ]

let () =
  match Sys.argv with
  | [| _; sc_lab; benchmark_json |] ->
    test_names ();
    test_span_check ();
    test_seed_changes_inputs ();
    test_same_seed ();
    test_benchmark_json benchmark_json;
    test_matches_sc_lab sc_lab;
    if !failures > 0 then begin
      Printf.printf "%d failed\n" !failures;
      exit 1
    end
  | _ ->
    prerr_endline "usage: test_perfbench.exe SC_LAB BENCHMARK_JSON";
    exit 2
