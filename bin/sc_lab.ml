(* sc_lab: command-line front end to the convergence lab.

   Runs a single Fig. 4 experiment with every knob exposed, prints the
   paper-style summary and (optionally) the simulation event trace.

     dune exec bin/sc_lab.exe -- run --prefixes 10000 --mode supercharged
     dune exec bin/sc_lab.exe -- run --mode plain --trace --flows 10
     dune exec bin/sc_lab.exe -- fig5 --sizes 1000,10000 --reps 2
     dune exec bin/sc_lab.exe -- bench all --quick --json bench_quick.json *)

open Cmdliner

let mode_conv =
  let parse = function
    | "plain" | "non-supercharged" -> Ok Experiments.Topology.Plain
    | "supercharged" | "super" -> Ok (Experiments.Topology.Supercharged { replicas = 1 })
    | "supercharged2" | "dual" -> Ok (Experiments.Topology.Supercharged { replicas = 2 })
    | s -> Error (`Msg (Fmt.str "unknown mode %S (plain|supercharged|dual)" s))
  in
  let print ppf m = Experiments.Topology.pp_mode ppf m in
  Arg.conv (parse, print)

let prefixes_arg =
  Arg.(value & opt int 10_000 & info ["prefixes"; "n"] ~docv:"N" ~doc:"Table size.")

let mode_arg =
  Arg.(
    value
    & opt mode_conv (Experiments.Topology.Supercharged { replicas = 1 })
    & info ["mode"] ~docv:"MODE" ~doc:"plain, supercharged or dual.")

let flows_arg =
  Arg.(value & opt int 100 & info ["flows"] ~docv:"N" ~doc:"Monitored flows.")

let seed_arg =
  Arg.(value & opt int64 42L & info ["seed"] ~docv:"SEED" ~doc:"Simulation seed.")

let trace_arg =
  Arg.(value & flag & info ["trace"] ~doc:"Print the event trace around the failure.")

let dense_arg =
  Arg.(
    value & flag
    & info ["dense"]
        ~doc:"Simulate every packet instead of event-driven probing (small runs only).")

let bfd_tx_arg =
  Arg.(value & opt int 40 & info ["bfd-tx"] ~docv:"MS" ~doc:"BFD transmit interval (ms).")

let flowmod_arg =
  Arg.(
    value & opt float 2.0
    & info ["flow-mod-latency"] ~docv:"MS" ~doc:"Switch rule installation latency (ms).")

let peers_arg =
  Arg.(value & opt int 2 & info ["peers"] ~docv:"N" ~doc:"Number of provider peers (2-8).")

let group_size_arg =
  Arg.(value & opt int 2 & info ["group-size"] ~docv:"K" ~doc:"Backup-group tuple size.")

let failure_conv =
  let parse = function
    | "primary" -> Ok Experiments.Topology.Fail_primary
    | "backup" -> Ok Experiments.Topology.Fail_backup
    | s -> (
      match String.index_opt s ':' with
      | Some i when String.sub s 0 i = "two" -> (
        match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
        | Some ms -> Ok (Experiments.Topology.Fail_two (Sim.Time.of_ms ms))
        | None -> Error (`Msg "two:<delay-ms> expected"))
      | _ -> Error (`Msg (Fmt.str "unknown failure %S (primary|backup|two:MS)" s)))
  in
  Arg.conv (parse, Experiments.Topology.pp_failure)

let failure_arg =
  Arg.(
    value
    & opt failure_conv Experiments.Topology.Fail_primary
    & info ["failure"] ~docv:"SCENARIO"
        ~doc:"primary (default), backup, or two:MS (primary then the serving peer MS later).")

let wire_arg =
  Arg.(
    value & flag
    & info ["bgp-wire"]
        ~doc:"Run every BGP session through the RFC 4271 codec with TCP-like fragmentation.")

let pcap_arg =
  Arg.(
    value
    & opt (some string) None
    & info ["pcap"] ~docv:"FILE" ~doc:"Capture R1's uplink to a pcap file.")

let run_cmd =
  let run n_prefixes mode flows seed trace dense bfd_tx flowmod_ms n_peers group_size
      failure pcap bgp_wire =
    let params = Experiments.Topology.default_params ~mode ~n_prefixes () in
    let params =
      {
        params with
        Experiments.Topology.monitored_flows = flows;
        seed;
        trace;
        traffic = (if dense then Experiments.Topology.Dense else Experiments.Topology.Event_driven);
        bfd_tx_interval = Sim.Time.of_ms bfd_tx;
        flow_mod_latency = Sim.Time.of_sec (flowmod_ms /. 1000.0);
        n_peers;
        group_size;
        failure;
        pcap;
        bgp_wire;
      }
    in
    let result = Experiments.Topology.run params in
    Fmt.pr "%a@." Experiments.Topology.pp_result result;
    Fmt.pr "events=%d probes=%d@." result.Experiments.Topology.events
      result.Experiments.Topology.probes;
    (match failure with
    | Experiments.Topology.Fail_two _ ->
      Array.iteri
        (fun i gaps ->
          Fmt.pr "flow#%d outages: %a@." i
            Fmt.(list ~sep:comma Sim.Time.pp)
            gaps)
        result.Experiments.Topology.outages
    | Experiments.Topology.Fail_primary | Experiments.Topology.Fail_backup -> ());
    (match pcap with
    | Some path -> Fmt.pr "pcap written to %s@." path
    | None -> ());
    if trace then begin
      Fmt.pr "@.trace around the failure (t_fail=%a):@." Sim.Time.pp
        result.Experiments.Topology.t_fail;
      List.iter
        (fun (e : Sim.Trace.entry) ->
          let dt = Sim.Time.sub e.time result.Experiments.Topology.t_fail in
          if
            Sim.Time.(dt >= Sim.Time.of_ms (-5))
            && Sim.Time.(dt <= Sim.Time.of_sec 2.0)
            && e.category <> "probe" && e.category <> "sink" && e.category <> "fib"
          then Fmt.pr "  %+10.3fms %-10s %s@." (Sim.Time.to_ms dt) e.category e.message)
        result.Experiments.Topology.trace_entries
    end
  in
  Cmd.v (Cmd.info "run" ~doc:"Run one convergence experiment (Fig. 4 lab).")
    Term.(
      const run $ prefixes_arg $ mode_arg $ flows_arg $ seed_arg $ trace_arg
      $ dense_arg $ bfd_tx_arg $ flowmod_arg $ peers_arg $ group_size_arg
      $ failure_arg $ pcap_arg $ wire_arg)

(* --- bench-shaped subcommands: fig5, deployment, bench ------------------- *)

let csv_arg =
  Arg.(value & opt (some string) None & info ["csv"] ~docv:"FILE" ~doc:"Also write rows as CSV.")

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info ["json"] ~docv:"FILE" ~doc:"Also write the numbers as JSON (schema bench/v1).")

let write_csv csv contents =
  Option.iter
    (fun path ->
      Out_channel.with_open_bin path (fun oc -> output_string oc contents);
      Fmt.pr "@.csv written to %s@." path)
    csv

let fig5_cmd =
  let sizes_arg =
    Arg.(
      value
      & opt (list int) Experiments.Fig5.paper_sizes
      & info ["sizes"] ~docv:"N,N,..." ~doc:"Prefix counts to sweep.")
  in
  let reps_arg =
    Arg.(value & opt int 1 & info ["reps"] ~docv:"N" ~doc:"Repetitions per point.")
  in
  let run sizes repetitions flows csv json =
    let write_json = Sections.json_sink Experiments.Bench.Paper json in
    let rows = Sections.fig5 ~sizes ~repetitions ~monitored_flows:flows () in
    write_csv csv (Experiments.Fig5.to_csv rows);
    write_json [("fig5", Experiments.Fig5.to_json rows)]
  in
  Cmd.v (Cmd.info "fig5" ~doc:"Reproduce Fig. 5 (convergence vs table size).")
    Term.(const run $ sizes_arg $ reps_arg $ flows_arg $ csv_arg $ json_arg)

(* --- the three differential checkers ------------------------------------ *)

let schedules_arg default =
  Arg.(
    value & opt int default
    & info ["schedules"] ~docv:"N" ~doc:"Schedules to execute, from consecutive seeds.")

let events_arg default =
  Arg.(value & opt int default & info ["events"] ~docv:"N" ~doc:"Events per schedule.")

let mutate_arg bug =
  Arg.(
    value & flag
    & info ["mutate"]
        ~doc:
          (Fmt.str
             "Arm the deliberate %s; the checker is expected to find and shrink a \
              counterexample, and the exit status is inverted accordingly."
             bug))

(* One reporter for every checker: runs the matrix, prints PASS or FAIL
   with the CPU time taken, and exits 0 on PASS, 1 on FAIL. Under
   [--mutate] the planted bug must be caught, so a failure is the PASS. *)
let report ~mutate ~clean (m : (_, _) Check.Harness.matrix) =
  let n = List.length m.seeds in
  let every = max 1 (n / 10) in
  let t0 = Sys.time () in
  let result =
    Check.Harness.run m ~progress:(fun i ->
        if i > 0 && i mod every = 0 then Fmt.epr "  ... %d/%d clean@." i n)
  in
  let dt = Sys.time () -. t0 in
  match result, mutate with
  | None, false ->
    Fmt.pr "PASS: %d schedules, %s (%.1fs)@." n clean dt;
    exit 0
  | None, true ->
    Fmt.pr "FAIL: the armed mutation survived %d schedules undetected (%.1fs)@." n dt;
    exit 1
  | Some f, false ->
    Fmt.pr "FAIL (%.1fs):@.%a" dt (Check.Harness.pp_failure m.pp) f;
    exit 1
  | Some f, true ->
    Fmt.pr "PASS (%.1fs): mutation caught and shrunk to %d events@.%a" dt
      (List.length (m.steps f.shrunk))
      (Check.Harness.pp_failure m.pp) f;
    exit 0

let check_cmd =
  let check_peers_arg =
    Arg.(value & opt int 3 & info ["peers"] ~docv:"N" ~doc:"Upstream peers.")
  in
  let check_prefixes_arg =
    Arg.(
      value & opt int 12 & info ["prefixes"] ~docv:"N" ~doc:"Distinct prefixes.")
  in
  let no_chaos_arg =
    Arg.(
      value & flag
      & info ["no-chaos"]
          ~doc:"Disable fault-window events (blackouts, loss, duplicates).")
  in
  let run schedules events n_peers n_prefixes no_chaos mutate seed =
    Fmt.pr "check: %d schedules x %d events, %d peers, %d prefixes, seed=%Ld%s%s@."
      schedules events n_peers n_prefixes seed
      (if no_chaos then ", chaos off" else "")
      (if mutate then ", MUTATED (skip one failover rewrite)" else "");
    report ~mutate ~clean:"zero invariant violations"
      (Check.Run.matrix ~n_peers ~n_prefixes ~events ~chaos:(not no_chaos) ~mutate
         ~seed ~schedules ())
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Differential checker: random event schedules against the flat-FIB oracle.")
    Term.(
      const run $ schedules_arg 50 $ events_arg 30 $ check_peers_arg
      $ check_prefixes_arg $ no_chaos_arg
      $ mutate_arg "Listing 2 bug (one skipped failover rewrite)"
      $ seed_arg)

let topo_check_cmd =
  let seeds_arg =
    Arg.(
      value
      & opt (list int64) [101L; 102L; 103L]
      & info ["seeds"] ~docv:"S,S,..." ~doc:"One schedule per seed.")
  in
  let routers_arg =
    Arg.(value & opt int 8 & info ["routers"] ~docv:"N" ~doc:"Ring size (>= 6).")
  in
  let topo_prefixes_arg =
    Arg.(value & opt int 6 & info ["prefixes"] ~docv:"N" ~doc:"Distinct prefixes.")
  in
  let run seeds routers events n_prefixes =
    Fmt.pr
      "topo-check: %d schedules x %d events, %d routers, %d prefixes, seeds=[%a]@."
      (List.length seeds) events routers n_prefixes
      Fmt.(list ~sep:comma int64)
      seeds;
    report ~mutate:false ~clean:"zero invariant violations"
      (Check.Topo_run.matrix ~routers ~n_prefixes ~events ~seeds ())
  in
  Cmd.v
    (Cmd.info "topo-check"
       ~doc:
         "Multi-node differential checker: seeded fault schedules (extern/link/srlg \
          failures, controller partitions) on a ring fabric, verified against the \
          ground-truth forwarding oracle at quiescence.")
    Term.(const run $ seeds_arg $ routers_arg $ events_arg 14 $ topo_prefixes_arg)

let ribscale_check_cmd =
  let rs_peers_arg =
    Arg.(value & opt int 100 & info ["peers"] ~docv:"N" ~doc:"Peers (skewed views).")
  in
  let entries_arg =
    Arg.(
      value & opt int 60_000
      & info ["entries"] ~docv:"N" ~doc:"Internet-shape table size.")
  in
  let run schedules events peers entries mutate seed =
    Fmt.pr
      "ribscale-check: %d schedules x %d events, %d peers, %d-prefix internet \
       table, seed=%Ld%s@."
      schedules events peers entries seed
      (if mutate then ", MUTATED (stale-route bug armed)" else "");
    report ~mutate
      ~clean:"incremental RIB matched the naive decision process"
      (Check.Ribscale.matrix ~n_peers:peers ~length:events ~entries ~mutate ~seed
         ~schedules ())
  in
  Cmd.v
    (Cmd.info "ribscale-check"
       ~doc:
         "Internet-scale RIB differential checker: the sharded, incrementally \
          re-ranked RIB against the naive flat oracle under skewed multi-peer \
          views, withdrawal storms and churn trains: ranked equivalence on each \
          event's touched prefixes plus per-length coverage counts, and over the \
          whole table after the load and after the last event.")
    Term.(
      const run $ schedules_arg 3 $ events_arg 10 $ rs_peers_arg $ entries_arg
      $ mutate_arg
          "stale-route bug (every 7th withdrawal never reaches the optimised RIB)"
      $ seed_arg)

let deployment_cmd =
  let routers_arg =
    Arg.(value & opt int 8 & info ["routers"] ~docv:"N" ~doc:"Ring size (>= 6).")
  in
  let dep_prefixes_arg =
    Arg.(value & opt int 200 & info ["prefixes"] ~docv:"N" ~doc:"Prefixes per extern.")
  in
  let seeds_arg =
    Arg.(
      value
      & opt (list int64) Experiments.Deployment.default_seeds
      & info ["seeds"] ~docv:"S,S,..." ~doc:"One sweep per seed.")
  in
  let coverage_arg =
    Arg.(
      value
      & opt (some (list int)) None
      & info ["coverage"] ~docv:"K,K,..."
          ~doc:"Deployment sizes to measure (default: every 0..routers).")
  in
  let run routers n_prefixes seeds coverage csv json =
    let write_json = Sections.json_sink Experiments.Bench.Paper json in
    let rows = Sections.deployment ~routers ~n_prefixes ?coverage ~seeds () in
    write_csv csv (Experiments.Deployment.to_csv rows);
    write_json [("deployment", Experiments.Deployment.to_json rows)]
  in
  Cmd.v
    (Cmd.info "deployment"
       ~doc:
         "Partial-deployment sweep: convergence win vs fraction of routers \
          supercharged, on the multi-router fabric.")
    Term.(
      const run $ routers_arg $ dep_prefixes_arg $ seeds_arg $ coverage_arg $ csv_arg
      $ json_arg)

let bench_cmd =
  let names = List.map fst Sections.all in
  let sections_arg =
    Arg.(
      value
      & pos_all (enum (List.map (fun n -> (n, n)) ("all" :: names))) ["all"]
      & info [] ~docv:"SECTION"
          ~doc:(Fmt.str "Sections to run, in any order: all, %s." (String.concat ", " names)))
  in
  let profile_arg =
    Arg.(
      value
      & vflag Experiments.Bench.Paper
          [
            (Quick, info ["quick"] ~doc:"Reduced sizes (CI-friendly).");
            (Full, info ["full"] ~doc:"The paper's 3 repetitions.");
          ])
  in
  let run sections profile json =
    let write_json = Sections.json_sink profile json in
    Fmt.pr "Supercharged router - benchmark harness (see DESIGN.md S4 index)@.";
    let want name = List.mem "all" sections || List.mem name sections in
    write_json
      (List.filter_map
         (fun (name, run) ->
           if want name then Option.map (fun j -> (name, j)) (run profile) else None)
         Sections.all);
    Fmt.pr "@.done.@."
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:"Regenerate the paper's evaluation, ablations and throughput benchmarks.")
    Term.(const run $ sections_arg $ profile_arg $ json_arg)

let bench_diff_cmd =
  let path_arg n docv doc = Arg.(required & pos n (some file) None & info [] ~docv ~doc) in
  let load path =
    match Obs.Json.of_string (In_channel.with_open_bin path In_channel.input_all) with
    | Ok json -> json
    | Error msg | (exception Sys_error msg) ->
      Fmt.pr "::error title=bench-diff::%s: %s@." path msg;
      exit 1
  in
  let run baseline run =
    let findings = Experiments.Bench.diff ~baseline:(load baseline) ~run:(load run) in
    List.iter (Fmt.pr "%a@." Experiments.Bench.pp_finding) findings;
    if List.is_empty findings then Fmt.pr "quick run consistent with the committed baseline@.";
    if List.exists (fun (f : Experiments.Bench.finding) -> f.severity = Fail) findings then
      exit 1
  in
  Cmd.v
    (Cmd.info "bench-diff"
       ~doc:
         "Diff a bench/v1 run against a committed baseline: one ::error or \
          ::warning annotation per finding, exit 1 on any hard-gate failure.")
    Term.(
      const run
      $ path_arg 0 "BASELINE" "The committed baseline, e.g. BENCH_ribscale.json."
      $ path_arg 1 "RUN" "This run's bench/v1 JSON.")

let lint_cmd =
  let root_arg =
    Arg.(
      value & opt string "."
      & info ["root"] ~docv:"DIR"
          ~doc:"Project root containing lib/ and bin/ (default: cwd).")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info ["json"] ~docv:"FILE" ~doc:"Also write the report as JSON (schema lint/v3).")
  in
  let strict_arg =
    Arg.(
      value & flag
      & info ["strict"]
          ~doc:"Exit non-zero on warnings (e.g. missing-mli) too, not just errors.")
  in
  let inventory_arg =
    Arg.(
      value
      & opt (some string) None
      & info ["inventory"] ~docv:"FILE"
          ~doc:
            "Compare the committed mutable-state inventory (schema \
             lint/state-v1) against a fresh one; exit 3 and rewrite FILE on \
             divergence so the diff is reviewable.")
  in
  let only_arg =
    Arg.(
      value & opt_all string []
      & info ["only"] ~docv:"RULE"
          ~doc:"Run only the named rule(s) (repeatable). parse-error always surfaces.")
  in
  let except_arg =
    Arg.(
      value & opt_all string []
      & info ["except"] ~docv:"RULE" ~doc:"Skip the named rule(s) (repeatable).")
  in
  (* Exit codes: 0 clean; 1 findings (errors, or warnings under
     --strict); 2 a file failed to parse; 3 inventory drift. Parse
     failure wins over findings, findings over drift: a tree that can't
     be read can't be trusted about anything else. *)
  let run root json strict inventory only except =
    let unknown =
      List.filter
        (fun r -> not (List.mem r Lint.Engine.all_rule_ids))
        (only @ except)
    in
    if unknown <> [] then begin
      Fmt.epr "unknown rule(s): %a; known: %a@."
        Fmt.(list ~sep:comma string)
        unknown
        Fmt.(list ~sep:comma string)
        Lint.Engine.all_rule_ids;
      exit 2
    end;
    let only = match only with [] -> None | rs -> Some rs in
    let report = Lint.Engine.scan_tree ?only ~except root in
    Lint.Engine.pp_report Fmt.stdout report;
    (match json with
    | Some path ->
      Out_channel.with_open_bin path (fun oc ->
          Obs.Json.to_channel oc (Lint.Engine.to_json report));
      Fmt.pr "json written to %s@." path
    | None -> ());
    let drift =
      match inventory with
      | None -> false
      | Some path -> (
        match Lint.State.check ~committed_path:path report.Lint.Engine.index with
        | Lint.State.Fresh_matches ->
          Fmt.pr "inventory %s is current@." path;
          false
        | Lint.State.Missing_committed | Lint.State.Diverged ->
          Lint.State.write ~path report.Lint.Engine.index;
          Fmt.pr
            "inventory drift: %s rewritten from the tree; review and commit \
             the diff@."
            path;
          true)
    in
    let errors = Lint.Engine.errors report in
    let warnings = Lint.Engine.warnings report in
    if Lint.Engine.has_parse_errors report then exit 2
    else if errors > 0 || (strict && warnings > 0) then exit 1
    else if drift then exit 3
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Static analysis enforcing the determinism, comparison and \
          domain-safety discipline: per-file rules (no ambient RNG/clock, no \
          polymorphic compare on net types, no hash-ordered output, no \
          wildcard on closed event variants) plus whole-program passes \
          (no-shared-mutable-global, cross-domain-unsafe, hot-path-alloc). \
          Exit codes: 0 clean, 1 findings, 2 parse error or bad --only/--except, \
          3 inventory drift.")
    Term.(
      const run $ root_arg $ json_arg $ strict_arg $ inventory_arg $ only_arg
      $ except_arg)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "sc_lab" ~version:"1.0.0"
             ~doc:"Supercharged-router convergence laboratory.")
          [
            run_cmd;
            bench_cmd;
            bench_diff_cmd;
            fig5_cmd;
            check_cmd;
            topo_check_cmd;
            ribscale_check_cmd;
            deployment_cmd;
            lint_cmd;
          ]))
