(* Tests for sc_lint: every rule fires on a minimal fixture, a clean
   fixture fires nothing, [@lint.allow] suppresses, and the real tree
   at HEAD lints clean (the meta-test CI relies on). Fixtures only
   need to parse, not typecheck, so they stay tiny. *)

let lint ?(file = "lib/fake/fixture.ml") src = Lint.Engine.lint_source ~file src

let rules ds = List.map (fun d -> d.Lint.Diagnostic.rule) ds

let check_rules msg expected ds =
  Alcotest.(check (list string)) msg expected (rules ds)

let rule_tests =
  [
    Alcotest.test_case "no-ambient-nondeterminism: Sys.time" `Quick (fun () ->
        check_rules "flagged" ["no-ambient-nondeterminism"]
          (lint "let t = Sys.time ()"));
    Alcotest.test_case "no-ambient-nondeterminism: Random nested" `Quick
      (fun () ->
        (* Two findings since lint v2: the ambient RNG itself, and the
           module-level Random.State it creates is shared mutable
           state. *)
        check_rules "Random.State too"
          ["no-shared-mutable-global"; "no-ambient-nondeterminism"]
          (lint "let s = Random.State.make [| 3 |]"));
    Alcotest.test_case "no-ambient-nondeterminism: only inside lib/" `Quick
      (fun () ->
        check_rules "bin/ may read the clock" []
          (lint ~file:"bin/sc_lab.ml" "let t = Sys.time ()");
        check_rules "Sim.Time itself is exempt" []
          (lint ~file:"lib/sim/time.ml" "let t = Sys.time ()"));
    Alcotest.test_case "no-polymorphic-compare: net-ish (=)" `Quick (fun () ->
        check_rules "prefix = q" ["no-polymorphic-compare"]
          (lint "let f prefix q = prefix = q"));
    Alcotest.test_case "no-polymorphic-compare: bare compare" `Quick (fun () ->
        check_rules "List.sort compare" ["no-polymorphic-compare"]
          (lint "let f l = List.sort compare l"));
    Alcotest.test_case "no-polymorphic-compare: local compare is fine" `Quick
      (fun () ->
        check_rules "file defines its own compare" []
          (lint "let compare a b = Int.compare a b\nlet f l = List.sort compare l"));
    Alcotest.test_case "no-polymorphic-compare: List.mem on net value" `Quick
      (fun () ->
        check_rules "List.mem prefix" ["no-polymorphic-compare"]
          (lint "let f prefix l = List.mem prefix l"));
    Alcotest.test_case "no-polymorphic-compare: (=) against None" `Quick
      (fun () ->
        (* The lib/net trie pattern this rule extension exists for:
           comparing a plain-looking option field still recurses into
           the payload structurally. *)
        check_rules "node.value = None" ["no-polymorphic-compare"]
          (lint "let f node = node.value = None"));
    Alcotest.test_case "no-polymorphic-compare: (<>) against None" `Quick
      (fun () ->
        check_rules "task <> None" ["no-polymorphic-compare"]
          (lint "let f t = t.task <> None"));
    Alcotest.test_case "no-polymorphic-compare: Option.is_none is the fix" `Quick
      (fun () ->
        check_rules "Option.is_none node.value" []
          (lint "let f node = Option.is_none node.value"));
    Alcotest.test_case "no-polymorphic-compare: None in a record literal is fine"
      `Quick (fun () ->
        check_rules "field initialised to None" []
          (lint "type r = { v : int option }\nlet f () = { v = None }"));
    Alcotest.test_case "ordered-hashtbl-escape: fold into JSON" `Quick
      (fun () ->
        check_rules "unsorted fold feeds Json" ["ordered-hashtbl-escape"]
          (lint
             "let to_json t = Json.Obj (Hashtbl.fold (fun k v a -> (k, v) :: \
              a) t [])"));
    Alcotest.test_case "ordered-hashtbl-escape: sort launders the fold" `Quick
      (fun () ->
        check_rules "sorted fold is fine" []
          (lint
             "let to_json t = Json.List (List.sort String.compare \
              (Hashtbl.fold (fun k _ a -> k :: a) t []))"));
    Alcotest.test_case "no-catch-all-on-events: wildcard on OF messages"
      `Quick (fun () ->
        check_rules "wildcard swallows new events" ["no-catch-all-on-events"]
          (lint "let f = function Packet_in p -> p | Hello -> 0 | _ -> 1"));
    Alcotest.test_case "no-catch-all-on-events: open variants untouched"
      `Quick (fun () ->
        check_rules "Some/None matches keep their wildcard" []
          (lint "let f = function Some _ -> 0 | _ -> 1"));
    Alcotest.test_case "fast-path-purity: failwith in controller" `Quick
      (fun () ->
        check_rules "controller must degrade"
          ["fast-path-purity"]
          (lint ~file:"lib/core/controller.ml" "let g () = failwith \"boom\"");
        check_rules "assert false too" ["fast-path-purity"]
          (lint ~file:"lib/openflow/switch.ml" "let g () = assert false");
        check_rules "other modules may raise" []
          (lint "let g () = failwith \"boom\""));
    Alcotest.test_case "clean fixture triggers nothing" `Quick (fun () ->
        check_rules "disciplined code" []
          (lint
             "let f a b = Prefix.equal a b\n\
              let keys t = List.sort String.compare (Hashtbl.fold (fun k _ a \
              -> k :: a) t [])\n\
              let g = function Packet_in p -> Some p | Hello -> None\n"));
    Alcotest.test_case "parse error becomes a diagnostic" `Quick (fun () ->
        check_rules "no exception" ["parse-error"] (lint "let let let"));
  ]

let suppression_tests =
  [
    Alcotest.test_case "expression-level allow" `Quick (fun () ->
        check_rules "suppressed" []
          (lint "let t = (Sys.time () [@lint.allow \"no-ambient-nondeterminism\"])"));
    Alcotest.test_case "allow of the wrong rule does not suppress" `Quick
      (fun () ->
        check_rules "still flagged" ["no-ambient-nondeterminism"]
          (lint "let t = (Sys.time () [@lint.allow \"fast-path-purity\"])"));
    Alcotest.test_case "floating allow covers the rest of the file" `Quick
      (fun () ->
        check_rules "whole file suppressed" []
          (lint
             "[@@@lint.allow \"no-ambient-nondeterminism\"]\n\
              let a = Sys.time ()\nlet b = Random.bits ()"));
    Alcotest.test_case "malformed allow payload is itself flagged" `Quick
      (fun () ->
        check_rules "bad payload" ["no-ambient-nondeterminism"; "lint-allow"]
          (lint "let t = (Sys.time () [@lint.allow 42])"));
  ]

(* ---- lint v2: whole-program passes ------------------------------- *)

let lint_many ?only ?except sources =
  (Lint.Engine.lint_sources ?only ?except sources).Lint.Engine.diagnostics

let shared_tests =
  [
    Alcotest.test_case "no-shared-mutable-global: bare Hashtbl" `Quick
      (fun () ->
        check_rules "flagged" ["no-shared-mutable-global"]
          (lint "let table = Hashtbl.create 16"));
    Alcotest.test_case "no-shared-mutable-global: bare ref" `Quick (fun () ->
        check_rules "flagged" ["no-shared-mutable-global"]
          (lint "let hits = ref 0"));
    Alcotest.test_case "no-shared-mutable-global: Atomic is the fix" `Quick
      (fun () ->
        check_rules "atomic is fine" [] (lint "let hits = Atomic.make 0"));
    Alcotest.test_case "no-shared-mutable-global: guarded_by a real mutex"
      `Quick (fun () ->
        check_rules "guarded is fine" []
          (lint
             "let m = Mutex.create ()\n\
              let reg = Hashtbl.create 8 [@@lint.guarded_by \"m\"]"));
    Alcotest.test_case "no-shared-mutable-global: guarded_by a ghost" `Quick
      (fun () ->
        (* The guard must exist and be a Mutex.create sibling. *)
        check_rules "missing guard" ["no-shared-mutable-global"]
          (lint "let reg = Hashtbl.create 8 [@@lint.guarded_by \"m\"]");
        check_rules "guard is not a mutex" ["no-shared-mutable-global"]
          (lint
             "let m = ref 0 [@@lint.domain_local \"test fixture\"]\n\
              let reg = Hashtbl.create 8 [@@lint.guarded_by \"m\"]"));
    Alcotest.test_case "no-shared-mutable-global: domain_local rationale"
      `Quick (fun () ->
        check_rules "justified" []
          (lint "let t = Hashtbl.create 4 [@@lint.domain_local \"test only\"]");
        (* A malformed annotation grants nothing: the global stays
           unguarded AND the annotation itself is flagged. *)
        check_rules "rationale is mandatory"
          ["no-shared-mutable-global"; "lint-annotation"]
          (lint "let t = Hashtbl.create 4 [@@lint.domain_local]"));
    Alcotest.test_case "no-shared-mutable-global: allow suppresses" `Quick
      (fun () ->
        check_rules "suppressed" []
          (lint
             "let t = Hashtbl.create 16 [@@lint.allow \
              \"no-shared-mutable-global\"]"));
    Alcotest.test_case "no-shared-mutable-global: functions are not globals"
      `Quick (fun () ->
        check_rules "constructor function is fine" []
          (lint "let make () = Hashtbl.create 16"));
    Alcotest.test_case "no-shared-mutable-global: bin/ is exempt" `Quick
      (fun () ->
        check_rules "CLI state is single-domain" []
          (lint ~file:"bin/sc_lab.ml" "let t = Hashtbl.create 16"));
    Alcotest.test_case "no-shared-mutable-global: through a local constructor"
      `Quick (fun () ->
        (* One-step transitivity: the global is mutable because the
           local function it calls returns fresh mutable state. *)
        check_rules "constructed global still flagged"
          ["no-shared-mutable-global"]
          (lint "let create () = Hashtbl.create 4\nlet default = create ()"));
    Alcotest.test_case "unknown lint attribute is flagged" `Quick (fun () ->
        check_rules "typo'd annotation" ["lint-annotation"]
          (lint "let f x = x [@@lint.zeroalloc]"));
  ]

let cross_tests =
  [
    Alcotest.test_case "cross-domain-unsafe: entry reaches a ref" `Quick
      (fun () ->
        let ds =
          lint_many
            [
              ("lib/fake/a.ml",
               "let global = ref 0 [@@lint.allow \
                \"no-shared-mutable-global\"]\n\
                let bump () = incr global");
              ("lib/fake/b.ml",
               "let[@lint.domain_entry \"worker fixture\"] run () = A.bump ()");
            ]
        in
        check_rules "reachable through two modules" ["cross-domain-unsafe"] ds;
        (* The finding lands on the entry binding, not the global. *)
        Alcotest.(check (list string)) "at the entry" ["lib/fake/b.ml"]
          (List.map (fun d -> d.Lint.Diagnostic.file) ds);
        Alcotest.(check bool) "chain in message" true
          (List.for_all
             (fun d ->
               let m = d.Lint.Diagnostic.message in
               let has sub =
                 let n = String.length sub and l = String.length m in
                 let rec go i =
                   i + n <= l && (String.sub m i n = sub || go (i + 1))
                 in
                 go 0
               in
               has "Fake.B.run" && has "Fake.A.global")
             ds));
    Alcotest.test_case "cross-domain-unsafe: Atomic breaks the chain" `Quick
      (fun () ->
        check_rules "atomic state is domain-safe" []
          (lint_many
             [
               ("lib/fake/a.ml",
                "let global = Atomic.make 0\n\
                 let bump () = Atomic.incr global");
               ("lib/fake/b.ml",
                "let[@lint.domain_entry \"worker fixture\"] run () = A.bump ()");
             ]));
    Alcotest.test_case "cross-domain-unsafe: reachable nondeterminism" `Quick
      (fun () ->
        check_rules "allowed clock still poisons a domain entry"
          ["cross-domain-unsafe"]
          (lint_many
             [
               ("lib/fake/a.ml",
                "let now () = (Sys.time () [@lint.allow \
                 \"no-ambient-nondeterminism\"])");
               ("lib/fake/b.ml",
                "let[@lint.domain_entry \"worker fixture\"] run () = A.now ()");
             ]));
    Alcotest.test_case "cross-domain-unsafe: allow at the entry" `Quick
      (fun () ->
        check_rules "entry owns its suppression" []
          (lint_many
             [
               ("lib/fake/a.ml",
                "let global = ref 0 [@@lint.allow \
                 \"no-shared-mutable-global\"]\n\
                 let bump () = incr global");
               ("lib/fake/b.ml",
                "let[@lint.domain_entry \"worker fixture\"] run () = A.bump \
                 () [@@lint.allow \"cross-domain-unsafe\"]");
             ]));
    Alcotest.test_case "domain_entry rationale is mandatory" `Quick (fun () ->
        check_rules "bare entry annotation" ["lint-annotation"]
          (lint "let[@lint.domain_entry] run () = ()"));
  ]

let alloc_tests =
  [
    Alcotest.test_case "hot-path-alloc: closure capture" `Quick (fun () ->
        (* Leading [fun]s are the function's own parameters; a closure
           is a [fun] built inside the body. *)
        check_rules "inner closure" ["hot-path-alloc"]
          (lint "let[@lint.zero_alloc] f x = let g y = x + y in g x");
        check_rules "curried parameters are not closures" []
          (lint "let[@lint.zero_alloc] f x = fun y -> x + y"));
    Alcotest.test_case "hot-path-alloc: tuple construction" `Quick (fun () ->
        check_rules "tuple" ["hot-path-alloc"]
          (lint "let[@lint.zero_alloc] f x = (x, x)"));
    Alcotest.test_case "hot-path-alloc: List combinator" `Quick (fun () ->
        check_rules "List.map" ["hot-path-alloc"]
          (lint "let[@lint.zero_alloc] f l = List.map succ l"));
    Alcotest.test_case "hot-path-alloc: sprintf" `Quick (fun () ->
        check_rules "Printf.sprintf" ["hot-path-alloc"]
          (lint "let[@lint.zero_alloc] f x = Printf.sprintf \"%d\" x"));
    Alcotest.test_case "hot-path-alloc: Some construction" `Quick (fun () ->
        check_rules "fresh Some" ["hot-path-alloc"]
          (lint "let[@lint.zero_alloc] f x = Some x"));
    Alcotest.test_case "hot-path-alloc: shared-cell idiom is the fix" `Quick
      (fun () ->
        check_rules "returning the stored option" []
          (lint
             "let[@lint.zero_alloc] f t = match t.cell with None -> None | \
              some -> some"));
    Alcotest.test_case "hot-path-alloc: cold paths may raise" `Quick
      (fun () ->
        check_rules "invalid_arg guard" []
          (lint
             "let[@lint.zero_alloc] f x = if x < 0 then invalid_arg \"f\" \
              else x + 1"));
    Alcotest.test_case "hot-path-alloc: allow suppresses" `Quick (fun () ->
        check_rules "suppressed scratch allocation" []
          (lint
             "let[@lint.zero_alloc] f x = ((x, x) [@lint.allow \
              \"hot-path-alloc\"])"));
    Alcotest.test_case "hot-path-alloc: cross-module partial application"
      `Quick (fun () ->
        check_rules "closure from under-application" ["hot-path-alloc"]
          (lint_many
             [
               ("lib/fake/a.ml", "let add3 a b c = a + b + c");
               ("lib/fake/b.ml", "let[@lint.zero_alloc] g x = A.add3 x 1");
             ]);
        check_rules "full application is fine" []
          (lint_many
             [
               ("lib/fake/a.ml", "let add3 a b c = a + b + c");
               ("lib/fake/b.ml", "let[@lint.zero_alloc] g x = A.add3 x 1 2");
             ]));
  ]

let selection_tests =
  [
    Alcotest.test_case "--only selects one rule" `Quick (fun () ->
        let src =
          "let table = Hashtbl.create 16\nlet t = Sys.time ()"
        in
        check_rules "only shared" ["no-shared-mutable-global"]
          (lint_many ~only:["no-shared-mutable-global"]
             [("lib/fake/fixture.ml", src)]);
        check_rules "except shared"
          ["no-ambient-nondeterminism"]
          (lint_many ~except:["no-shared-mutable-global"]
             [("lib/fake/fixture.ml", src)]));
    Alcotest.test_case "parse-error pierces --only" `Quick (fun () ->
        check_rules "unreadable file always surfaces" ["parse-error"]
          (lint_many ~only:["no-polymorphic-compare"]
             [("lib/fake/fixture.ml", "let let let")]));
  ]

let state_tests =
  [
    Alcotest.test_case "lint/state-v1 golden render" `Quick (fun () ->
        let report =
          Lint.Engine.lint_sources
            [
              ("lib/fake/a.ml",
               "let m = Mutex.create ()\n\
                let reg = Hashtbl.create 8 [@@lint.guarded_by \"m\"]\n\
                let count = Atomic.make 0");
            ]
        in
        let golden =
          "{\"schema\":\"lint/state-v1\",\"globals\":3,\"unguarded\":0,\
           \"inventory\":[\
           {\"qname\":\"Fake.A.count\",\"file\":\"lib/fake/a.ml\",\
           \"kind\":\"atomic\",\"class\":\"atomic\"},\
           {\"qname\":\"Fake.A.m\",\"file\":\"lib/fake/a.ml\",\
           \"kind\":\"mutex\",\"class\":\"mutex-guard\"},\
           {\"qname\":\"Fake.A.reg\",\"file\":\"lib/fake/a.ml\",\
           \"kind\":\"hashtbl\",\"class\":\"mutex-guarded\",\
           \"guard\":\"m\"}]}\n"
        in
        Alcotest.(check string) "byte-stable inventory" golden
          (Lint.State.render report.Lint.Engine.index));
    Alcotest.test_case "unguarded counting" `Quick (fun () ->
        let report =
          Lint.Engine.lint_sources
            [("lib/fake/a.ml", "let leak = ref 0")]
        in
        let es = Lint.State.entries report.Lint.Engine.index in
        Alcotest.(check int) "one global" 1 (List.length es);
        Alcotest.(check int) "counted unguarded" 1 (Lint.State.unguarded es));
    Alcotest.test_case "drift detection is byte comparison" `Quick (fun () ->
        let report =
          Lint.Engine.lint_sources
            [("lib/fake/a.ml", "let count = Atomic.make 0")]
        in
        let index = report.Lint.Engine.index in
        let path = Filename.temp_file "sc_lint_state" ".json" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Sys.remove path;
            Alcotest.(check bool) "missing" true
              (Lint.State.check ~committed_path:path index
               = Lint.State.Missing_committed);
            Lint.State.write ~path index;
            Alcotest.(check bool) "fresh matches" true
              (Lint.State.check ~committed_path:path index
               = Lint.State.Fresh_matches);
            let oc = open_out_gen [Open_append] 0o644 path in
            output_string oc "x";
            close_out oc;
            Alcotest.(check bool) "diverged" true
              (Lint.State.check ~committed_path:path index
               = Lint.State.Diverged)));
  ]

(* A throwaway tree on disk, for the cache round-trip. *)
let with_temp_tree f =
  let dir = Filename.temp_file "sc_lint_tree" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Sys.mkdir (Filename.concat dir "lib") 0o755;
  Sys.mkdir (Filename.concat dir "lib/fake") 0o755;
  let write path src =
    let oc = open_out (Filename.concat dir path) in
    output_string oc src;
    close_out oc
  in
  let rec rm p =
    if Sys.is_directory p then begin
      Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p
  in
  Fun.protect ~finally:(fun () -> rm dir) (fun () -> f dir write)

let cache_tests =
  [
    Alcotest.test_case "warm re-run parses nothing" `Quick (fun () ->
        with_temp_tree (fun root write ->
            write "lib/fake/a.ml" "let f x = x + 1\n";
            write "lib/fake/b.ml" "let g x = x * 2\n";
            let cache = Filename.concat root "facts.cache" in
            let cold = Lint.Engine.scan_tree ~dirs:["lib"] ~cache root in
            Alcotest.(check int) "cold run parses" 0
              cold.Lint.Engine.cache_hits;
            Alcotest.(check int) "two files" 2 cold.Lint.Engine.files;
            let warm = Lint.Engine.scan_tree ~dirs:["lib"] ~cache root in
            Alcotest.(check int) "warm run hits every file" 2
              warm.Lint.Engine.cache_hits;
            Alcotest.(check bool) "same diagnostics" true
              (List.equal Lint.Diagnostic.equal cold.Lint.Engine.diagnostics
                 warm.Lint.Engine.diagnostics)));
    Alcotest.test_case "an edit invalidates only that file" `Quick (fun () ->
        with_temp_tree (fun root write ->
            write "lib/fake/a.ml" "let f x = x + 1\n";
            write "lib/fake/b.ml" "let g x = x * 2\n";
            let cache = Filename.concat root "facts.cache" in
            ignore (Lint.Engine.scan_tree ~dirs:["lib"] ~cache root);
            write "lib/fake/a.ml" "let f x = x + 2\n";
            let partial = Lint.Engine.scan_tree ~dirs:["lib"] ~cache root in
            Alcotest.(check int) "one hit, one re-parse" 1
              partial.Lint.Engine.cache_hits));
    Alcotest.test_case "a stale cache version degrades to a cold run" `Quick
      (fun () ->
        with_temp_tree (fun root write ->
            write "lib/fake/a.ml" "let f x = x + 1\n";
            let cache = Filename.concat root "facts.cache" in
            let oc = open_out_bin cache in
            Marshal.to_channel oc "sc_lint-cache-v0" [];
            close_out oc;
            let report = Lint.Engine.scan_tree ~dirs:["lib"] ~cache root in
            Alcotest.(check int) "no hits from a foreign cache" 0
              report.Lint.Engine.cache_hits));
  ]

let contains_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* Walk up from the dune sandbox to the checkout: the first ancestor
   holding dune-project and lib/ that is not inside _build. *)
let find_repo_root () =
  let rec up dir n =
    if n = 0 then None
    else
      let ok =
        Sys.file_exists (Filename.concat dir "dune-project")
        && Sys.file_exists (Filename.concat dir "lib")
        && not (contains_sub ~sub:"_build" dir)
      in
      if ok then Some dir
      else
        let parent = Filename.dirname dir in
        if parent = dir then None else up parent (n - 1)
  in
  up (Sys.getcwd ()) 8

let meta_tests =
  [
    Alcotest.test_case "the real tree lints clean" `Quick (fun () ->
        match find_repo_root () with
        | None -> Printf.printf "repo root not reachable from cwd; skipping\n"
        | Some root ->
          let report = Lint.Engine.scan_tree root in
          List.iter
            (fun d -> Fmt.epr "%a@." Lint.Diagnostic.pp d)
            report.Lint.Engine.diagnostics;
          Alcotest.(check bool) "scanned a real tree" true
            (report.Lint.Engine.files > 50);
          Alcotest.(check int) "errors" 0 (Lint.Engine.errors report);
          Alcotest.(check int) "warnings (missing-mli)" 0
            (Lint.Engine.warnings report));
    Alcotest.test_case "the real tree has no unguarded shared state" `Quick
      (fun () ->
        match find_repo_root () with
        | None -> Printf.printf "repo root not reachable from cwd; skipping\n"
        | Some root ->
          let report = Lint.Engine.scan_tree root in
          let es = Lint.State.entries report.Lint.Engine.index in
          Alcotest.(check bool) "inventory is non-empty" true
            (List.length es > 0);
          Alcotest.(check int) "unguarded globals" 0 (Lint.State.unguarded es);
          (* The committed LINT_STATE.json must be current — the same
             byte comparison the CI drift gate runs. *)
          let committed_path = Filename.concat root "LINT_STATE.json" in
          Alcotest.(check bool) "committed inventory is current" true
            (Lint.State.check ~committed_path report.Lint.Engine.index
             = Lint.State.Fresh_matches));
    Alcotest.test_case "the named hot paths carry zero_alloc" `Quick
      (fun () ->
        match find_repo_root () with
        | None -> Printf.printf "repo root not reachable from cwd; skipping\n"
        | Some root ->
          let report = Lint.Engine.scan_tree root in
          let index = report.Lint.Engine.index in
          List.iter
            (fun qname ->
              match Lint.Index.find index qname with
              | Some b ->
                Alcotest.(check bool) (qname ^ " is zero_alloc") true
                  b.Lint.Index.b_zero_alloc
              | None -> Alcotest.failf "%s not indexed" qname)
            [
              "Net.Flat_fib.lookup_value";
              "Net.Flat_fib.lookup_batch";
              "Openflow.Flow_table.lookup_batch";
              "Openflow.Flow_table.peek";
              "Openflow.Ofmatch.matches";
              "Openflow.Switch.resolve_batch";
              "Supercharger.Fib_cache.resolve_batch";
            ]);
    Alcotest.test_case "report is deterministic and ordered" `Quick (fun () ->
        let src = "let a = Sys.time ()\nlet b = Random.bits ()" in
        let once = lint src and twice = lint src in
        Alcotest.(check bool) "same diagnostics" true
          (List.equal Lint.Diagnostic.equal once twice);
        let sorted = List.sort Lint.Diagnostic.compare once in
        Alcotest.(check bool) "already sorted" true
          (List.equal Lint.Diagnostic.equal once sorted));
    Alcotest.test_case "json report shape" `Quick (fun () ->
        let report =
          Lint.Engine.lint_sources
            [("lib/fake/fixture.ml", "let t = Sys.time ()")]
        in
        let s = Obs.Json.to_string (Lint.Engine.to_json report) in
        Alcotest.(check bool) "schema tag" true (contains_sub ~sub:"lint/v2" s);
        Alcotest.(check bool) "cache hits reported" true
          (contains_sub ~sub:"cache_hits" s);
        Alcotest.(check bool) "rule listed" true
          (contains_sub ~sub:"no-ambient-nondeterminism" s));
  ]

let suite =
  [
    ("lint rules", rule_tests);
    ("lint suppression", suppression_tests);
    ("lint shared-mutable", shared_tests);
    ("lint cross-domain", cross_tests);
    ("lint hot-path-alloc", alloc_tests);
    ("lint rule selection", selection_tests);
    ("lint inventory", state_tests);
    ("lint cache", cache_tests);
    ("lint meta", meta_tests);
  ]
