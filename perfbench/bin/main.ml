(* perfbench: the repository's benchmark, one workload per run.

     main.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>

   Prints human-readable lines prefixed with '#', then the JSON result
   as the last line; a failed output check reads "correct": false. *)

let usage () =
  prerr_endline "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := Some v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match !workload, !seed, !seconds, !trace with
  | Some workload, Some seed, Some seconds, Some trace
    when List.mem_assoc workload Perfbench.Bench.workloads && seconds > 0.0 ->
    let sink =
      Perfbench.Bench.execute ~spans_dir:".bench_out" ~workload ~seed ~seconds ~trace
        ~scale:Perfbench.Ctx.Full ()
    in
    Perfbench.Bench.print_result sink ~trace
  | _ -> usage ()
