(* One benchmark run: run the workload, then print the details and, as
   the last line of standard output, the JSON result. *)

let workloads =
  [
    ("fig4-failover", Fig4.run);
    ("internet-feed", Feed.run);
    ("forwarding", Forwarding.run);
    ("ribscale-check", Ribcheck.run);
  ]

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

(* Runs the workload and returns the sink, with spans written to
   [spans_dir] in a traced run. *)
let execute ?spans_dir ~workload ~seed ~seconds ~trace ~scale () =
  let run =
    match List.assoc_opt workload workloads with
    | Some run -> run
    | None -> invalid_arg (Printf.sprintf "unknown workload %S" workload)
  in
  let sink = Metric.create () in
  let ctx = { Ctx.seed; seconds; trace; scale; sink } in
  Span.reset ();
  Ctx.traced_wall := 0.0;
  Timing.start ();
  Fun.protect ~finally:Timing.stop (fun () -> run ctx);
  Metric.set sink "heap_peak_mb" (heap_peak_mb ());
  if trace then begin
    Ctx.record_span_shares ctx;
    Option.iter
      (fun dir ->
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        Span.write
          (Filename.concat dir (Printf.sprintf "spans-%s-seed%d.csv" workload seed)))
      spans_dir
  end;
  sink

let print_result sink ~trace =
  let names = if trace then Metric.per_layer else Metric.end_to_end in
  List.iter
    (fun (key, line) -> Printf.printf "# %s: %s\n" key line)
    (List.rev sink.Metric.details);
  List.iter (Printf.printf "# failure: %s\n") (List.rev sink.Metric.first_failures);
  List.iter
    (fun (name, unit) -> Printf.printf "# %-58s %.6g %s\n" name (Metric.get sink name) unit)
    names;
  let correct = sink.Metric.failed = 0 && sink.Metric.attempted > 0 in
  print_endline (Metric.result_line sink ~correct names)
