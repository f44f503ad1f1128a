(* The three whole-program passes over {!Index.t}. These run after
   every file's facts exist and are cheap: they walk plain data, never
   ASTs. *)

let rule_shared = "no-shared-mutable-global"
let rule_cross = "cross-domain-unsafe"
let rule_alloc = "hot-path-alloc"
let rule_ids = List.sort String.compare [rule_shared; rule_cross; rule_alloc]

let error ~rule ~file ~line ~col fmt =
  Fmt.kstr
    (fun message ->
      Diagnostic.v ~rule ~severity:Diagnostic.Error ~file ~line ~col message)
    fmt

let module_prefix qname =
  match String.rindex_opt qname '.' with
  | Some i -> String.sub qname 0 i
  | None -> qname

(* ------------------------------------------------------------------ *)
(* Pass (a): no-shared-mutable-global.

   Every module-level mutable value in [lib/] must carry a discipline:
   [Atomic.make] (safe), [Mutex.create] (it *is* the discipline),
   [[@@lint.guarded_by "m"]] naming a sibling mutex, or a justified
   [[@@lint.domain_local]]. Anything else races under domains. *)

let shared_mutable (t : Index.t) =
  List.concat_map
    (fun ((_ff : Index.file_facts), (b : Index.binding), (kind, cls)) ->
      let at fmt =
        error ~rule:rule_shared ~file:b.Index.b_file ~line:b.Index.b_line
          ~col:b.Index.b_col fmt
      in
      match cls with
      | Index.Unguarded ->
        [
          at
            "module-level mutable %s `%s` will be shared across domains; make \
             it Atomic, guard it with [@@lint.guarded_by \"<mutex>\"], or \
             justify single-domain ownership with [@@lint.domain_local \
             \"...\"]"
            kind b.Index.b_qname;
        ]
      | Index.Mutex_guarded m -> (
        (* The named guard must be a sibling Mutex binding; otherwise the
           annotation is wishful thinking. *)
        let guard_qname = module_prefix b.Index.b_qname ^ "." ^ m in
        match Index.find t guard_qname with
        | Some g when g.Index.b_mutable = Some ("mutex", Index.Mutex_guard) -> []
        | Some _ ->
          [at "[@@lint.guarded_by \"%s\"] names `%s`, which is not a Mutex.t" m guard_qname]
        | None ->
          [at "[@@lint.guarded_by \"%s\"] names no sibling binding `%s`" m guard_qname])
      | Index.Atomic | Index.Mutex_guard | Index.Domain_local _ -> [])
    (Index.globals t)

(* ------------------------------------------------------------------ *)
(* Pass (b): cross-domain-unsafe.

   From each [[@@lint.domain_entry]] binding, walk the approximate call
   graph (resolved qualified references). Any reachable unguarded
   mutable global or ambient-nondeterminism site is flagged at the
   entry, with the call chain spelled out — the entry is what will run
   on its own domain, so the entry is what must be fixed or re-routed. *)

let cross_domain (t : Index.t) =
  let facts_of_file = Hashtbl.create 64 in
  List.iter
    (fun (ff : Index.file_facts) -> Hashtbl.replace facts_of_file ff.Index.ff_file ff)
    t.Index.files;
  let chain_str parents qname =
    let rec up acc q =
      match Hashtbl.find_opt parents q with
      | Some p -> up (q :: acc) p
      | None -> q :: acc
    in
    String.concat " -> " (up [] qname)
  in
  List.concat_map
    (fun ((entry_ff : Index.file_facts), (entry : Index.binding), _rationale) ->
      let diags = ref [] in
      let at fmt =
        Fmt.kstr
          (fun message ->
            diags :=
              Diagnostic.v ~rule:rule_cross ~severity:Diagnostic.Error
                ~file:entry.Index.b_file ~line:entry.Index.b_line
                ~col:entry.Index.b_col message
              :: !diags)
          fmt
      in
      let visited = Hashtbl.create 64 in
      let parents = Hashtbl.create 64 in
      let queue = Queue.create () in
      Hashtbl.replace visited entry.Index.b_qname ();
      Queue.add entry.Index.b_qname queue;
      while not (Queue.is_empty queue) do
        let qname = Queue.pop queue in
        match Index.find t qname with
        | None -> ()
        | Some b ->
          let ff =
            match Hashtbl.find_opt facts_of_file b.Index.b_file with
            | Some ff -> ff
            | None -> entry_ff
          in
          (match b.Index.b_mutable with
          | Some (kind, Index.Unguarded) when qname <> entry.Index.b_qname ->
            at
              "domain entry `%s` reaches unguarded mutable %s `%s` (via %s); \
               state shared across domains must be Atomic, mutex-guarded, or \
               [@@lint.domain_local]"
              entry.Index.b_qname kind qname (chain_str parents qname)
          | _ -> ());
          List.iter
            (fun (s : Index.site) ->
              at
                "domain entry `%s` reaches ambient-nondeterminism site %s at \
                 %s:%d (via %s); per-domain determinism needs the scenario's \
                 seeded streams"
                entry.Index.b_qname s.Index.s_what b.Index.b_file
                s.Index.s_line (chain_str parents qname))
            b.Index.b_nondet;
          List.iter
            (fun raw ->
              match Index.resolve t ~from:ff raw with
              | Some callee when not (Hashtbl.mem visited callee) ->
                Hashtbl.replace visited callee ();
                Hashtbl.replace parents callee qname;
                Queue.add callee queue
              | _ -> ())
            b.Index.b_refs
      done;
      !diags)
    (Index.domain_entries t)

(* ------------------------------------------------------------------ *)
(* Pass (c): the cross-file half of hot-path-alloc.

   The per-file half (Index.check_zero_alloc) already flagged closures,
   tuple/record construction, [List] combinators and formatting inside
   [[@@lint.zero_alloc]] bodies. What it could not see is arity:
   applying an indexed function with fewer positional arguments than it
   takes allocates a closure. Callees with labelled or optional
   parameters are skipped — syntactic arity is meaningless there. *)

let hot_path_partial (t : Index.t) =
  List.concat_map
    (fun (ff : Index.file_facts) ->
      List.concat_map
        (fun (b : Index.binding) ->
          if not b.Index.b_zero_alloc then []
          else
            List.filter_map
              (fun (ap : Index.apply) ->
                match Index.resolve t ~from:ff ap.Index.ap_path with
                | Some callee_q -> (
                  match Index.find t callee_q with
                  | Some callee
                    when callee.Index.b_arity > 0
                         && (not callee.Index.b_has_labels)
                         && ap.Index.ap_args < callee.Index.b_arity ->
                    Some
                      (error ~rule:rule_alloc ~file:b.Index.b_file
                         ~line:ap.Index.ap_line ~col:ap.Index.ap_col
                         "partial application of %s (%d of %d arguments) \
                          allocates a closure on the hot path"
                         callee_q ap.Index.ap_args callee.Index.b_arity)
                  | _ -> None)
                | None -> None)
              b.Index.b_applies)
        ff.Index.ff_bindings)
    t.Index.files

(* Suppression is uniform: a finding lands on some line of some file;
   any [[@lint.allow]] range in that file covering that line (with the
   rule named) silences it. For cross-domain findings the diagnostic
   sits on the *entry* binding — the entry owns its domain contract, so
   the allow goes there, not on the global it happens to reach. *)
let suppressed_in t (d : Diagnostic.t) =
  match Index.facts_for t d.Diagnostic.file with
  | Some ff -> Index.suppressed ff d
  | None -> false

let run ?(only : string list option) ?(except : string list = []) t =
  let selected rule =
    (match only with None -> true | Some rs -> List.mem rule rs)
    && not (List.mem rule except)
  in
  let maybe rule pass = if selected rule then pass t else [] in
  maybe rule_shared shared_mutable
  @ maybe rule_cross cross_domain
  @ maybe rule_alloc hot_path_partial
  |> List.filter (fun d -> not (suppressed_in t d))
  |> List.sort_uniq Diagnostic.compare
