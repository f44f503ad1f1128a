type profile = Quick | Paper | Full

let envelope profile sections =
  let quick, full =
    match profile with Quick -> (true, false) | Paper -> (false, false) | Full -> (false, true)
  in
  Obs.Json.Obj
    [
      ("schema", Obs.Json.String "bench/v1");
      ("quick", Obs.Json.Bool quick);
      ("full", Obs.Json.Bool full);
      ("sections", Obs.Json.Obj sections);
    ]

type severity = Fail | Warn
type finding = { severity : severity; title : string; message : string }

let pp_finding ppf f =
  Format.fprintf ppf "::%s title=%s::%s"
    (match f.severity with Fail -> "error" | Warn -> "warning")
    f.title f.message

(* Throughput at a matching row may not drop below this share of the
   baseline: CI runners are noisy, but not 30% noisy. *)
let tolerance = 0.70

(* A deterministic work counter may not grow past this multiple. *)
let growth = 2

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun m -> raise (Malformed m)) fmt

let field row k =
  match List.assoc_opt k row with Some v -> v | None -> malformed "a row has no %S" k

let num row k =
  match field row k with
  | Obs.Json.Int i -> float_of_int i
  | Obs.Json.Float f -> f
  | _ -> malformed "%S is not a number" k

let int row k =
  match field row k with Obs.Json.Int i -> i | _ -> malformed "%S is not an int" k

let str row k =
  match field row k with Obs.Json.String s -> s | _ -> malformed "%S is not a string" k

type row = (string * Obs.Json.t) list

type rule =
  | Floor of string  (** Fail below [tolerance] × the matching baseline row *)
  | Ceiling of string * (row -> int -> int -> string)
      (** Fail above [growth] × max 1 the matching baseline row; the
          message gets the row, the run's and the baseline's count *)
  | Shape of string * (float -> bool) * (row -> float -> string)
      (** Warn on every run row the predicate holds for *)

type table = {
  member : string option;  (** the rows' member of the section; [None]: the section *)
  key : string list;  (** the fields pairing a run row with a baseline row *)
  label : row -> string;  (** names the row in a [Floor] message *)
  rules : rule list;
}

let prefixes r = int r "prefixes"

let rule_sets =
  [
    ( "dataplane",
      [
        {
          member = Some "lpm";
          key = ["prefixes"];
          label = (fun r -> Printf.sprintf "lpm @ %d prefixes" (prefixes r));
          rules =
            [
              Floor "flat_lookups_per_sec";
              Floor "flat_batch_lookups_per_sec";
              Shape ("flat_vs_trie", (fun x -> x < 3.0), fun r x ->
                  Printf.sprintf "flat FIB only %.2fx over the trie at %d prefixes (baseline \
                                  keeps >= 3x)" x (prefixes r));
            ];
        };
        {
          member = Some "forwarding";
          key = ["component"];
          label = (fun r -> str r "component");
          rules =
            [
              Floor "single_pps";
              Floor "batch_pps";
              Shape ("batch_vs_single", (fun x -> x < 1.5), fun r x ->
                  Printf.sprintf "%s: batching only %.2fx over single-packet (baseline keeps \
                                  >= 1.5x)" (str r "component") x);
            ];
        };
      ] );
    ( "ribscale",
      [
        {
          member = None;
          key = ["prefixes"; "peers"];
          label =
            (fun r -> Printf.sprintf "%d prefixes / %d peers" (prefixes r) (int r "peers"));
          rules =
            [
              Floor "load_per_sec";
              Floor "churn_per_sec";
              Floor "storm_per_sec";
              Ceiling ("peer_down_visits", fun r v b ->
                  Printf.sprintf "%d prefixes: peer-down visited %d candidate nodes, baseline \
                                  %d — the O(peer) bound broke" (prefixes r) v b);
              Shape ("storm_groups_repeat", (fun x -> x <> 0.0), fun r _ ->
                  Printf.sprintf "%d prefixes: a repeated storm allocated %d backup-groups \
                                  (reuse should make this 0)" (prefixes r)
                    (int r "storm_groups_repeat"));
              Shape ("visit_ratio", (fun x -> x > 16.0), fun r x ->
                  Printf.sprintf "%d prefixes: peer-down visit ratio %.1f per withdrawn prefix"
                    (prefixes r) x);
            ];
        };
      ] );
  ]

let rows_of section member =
  let rows =
    match (member, section) with
    | None, rows -> rows
    | Some k, Obs.Json.Obj members -> (
      match List.assoc_opt k members with
      | Some rows -> rows
      | None -> malformed "no %S table" k)
    | Some _, _ -> malformed "the section is not an object"
  in
  match rows with
  | Obs.Json.List rows ->
    List.map (function Obs.Json.Obj row -> row | _ -> malformed "a row is not an object") rows
  | _ -> malformed "the rows are not a list"

(* Hard gates first (every table, every matching row), then shape
   warnings on every run row, then baseline coverage: the order the
   annotations print in. *)
let check_section name tables ~base ~run =
  let fail m = { severity = Fail; title = name ^ " throughput regression"; message = m } in
  let warn m = { severity = Warn; title = name ^ " baseline drift"; message = m } in
  let tables =
    List.map
      (fun t ->
        let key r = List.map (field r) t.key in
        let base_rows = rows_of base t.member in
        let matching row = List.find_opt (fun b -> key b = key row) base_rows in
        (t, base_rows, rows_of run t.member, matching))
      tables
  in
  let per_rule f =
    List.concat_map
      (fun (t, _, run_rows, matching) ->
        List.concat_map (fun row -> List.filter_map (f t row (matching row)) t.rules) run_rows)
      tables
  in
  let gates =
    per_rule (fun t row base rule ->
        match (rule, base) with
        | Floor m, Some b when num row m < tolerance *. num b m ->
          Some
            (fail
               (Printf.sprintf "%s: %s %.0f < %.0f%% of baseline %.0f" (t.label row) m
                  (num row m) (tolerance *. 100.0) (num b m)))
        | Ceiling (m, message), Some b when int row m > growth * max 1 (int b m) ->
          Some (fail (message row (int row m) (int b m)))
        | (Floor _ | Ceiling _ | Shape _), _ -> None)
  in
  let shapes =
    per_rule (fun _ row _ -> function
      | Shape (m, bad, message) when bad (num row m) -> Some (warn (message row (num row m)))
      | Floor _ | Ceiling _ | Shape _ -> None)
  in
  let coverage (t, base_rows, run_rows, matching) =
    let table = Option.fold ~none:"" ~some:(fun k -> k ^ " ") t.member in
    let prefix = Option.fold ~none:"" ~some:(fun k -> k ^ ": ") t.member in
    (if List.is_empty base_rows then
       [warn (Printf.sprintf "committed BENCH_%s.json has no %srows" name table)]
     else [])
    @
    if List.exists (fun row -> Option.is_some (matching row)) run_rows then []
    else [warn (prefix ^ "no quick row matches a baseline row — diff checked nothing")]
  in
  gates @ shapes @ List.concat_map coverage tables

let sections_of what json =
  let get k = match json with Obs.Json.Obj doc -> List.assoc_opt k doc | _ -> None in
  match (get "schema", get "sections") with
  | Some (Obs.Json.String "bench/v1"), Some (Obs.Json.Obj sections) -> Ok sections
  | _ -> Error (what ^ " is not a bench/v1 document")

let diff ~baseline ~run =
  let fail message = { severity = Fail; title = "bench-diff"; message } in
  match (sections_of "the baseline" baseline, sections_of "the run" run) with
  | Error e, _ | _, Error e -> [fail e]
  | Ok [], Ok _ -> [fail "the baseline has no sections: the diff would check nothing"]
  | Ok base, Ok run ->
    List.concat_map
      (fun (name, b) ->
        match (List.assoc_opt name rule_sets, List.assoc_opt name run) with
        | None, _ -> [fail (Printf.sprintf "no rule set for section %S" name)]
        | Some _, None -> [fail (Printf.sprintf "section %S is missing from the run" name)]
        | Some tables, Some r -> (
          try check_section name tables ~base:b ~run:r
          with Malformed msg -> [fail (Printf.sprintf "section %S: %s" name msg)]))
      base
