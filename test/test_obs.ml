(* Tests for the observability library: JSON printer, ring buffer,
   histograms, metrics registry. *)

let json_tests =
  let str j = Obs.Json.to_string j in
  [
    Alcotest.test_case "scalars" `Quick (fun () ->
        Alcotest.(check string) "null" "null" (str Obs.Json.Null);
        Alcotest.(check string) "bool" "true" (str (Obs.Json.Bool true));
        Alcotest.(check string) "int" "-42" (str (Obs.Json.Int (-42)));
        Alcotest.(check string) "float keeps a point" "2.0"
          (str (Obs.Json.Float 2.0));
        Alcotest.(check string) "float short form" "0.027"
          (str (Obs.Json.Float 0.027));
        Alcotest.(check string) "nan is null" "null"
          (str (Obs.Json.Float Float.nan));
        Alcotest.(check string) "inf is null" "null"
          (str (Obs.Json.Float Float.infinity)));
    Alcotest.test_case "string escaping" `Quick (fun () ->
        Alcotest.(check string) "quotes and backslash" {|"a\"b\\c"|}
          (str (Obs.Json.String {|a"b\c|}));
        Alcotest.(check string) "control chars" {|"x\ny\tz\u0001"|}
          (str (Obs.Json.String "x\ny\tz\001")));
    Alcotest.test_case "containers" `Quick (fun () ->
        Alcotest.(check string) "list" "[1,2,3]"
          (str (Obs.Json.List [Obs.Json.Int 1; Obs.Json.Int 2; Obs.Json.Int 3]));
        Alcotest.(check string) "object order preserved" {|{"b":1,"a":2}|}
          (str (Obs.Json.Obj [("b", Obs.Json.Int 1); ("a", Obs.Json.Int 2)]));
        Alcotest.(check string) "empty" "{}" (str (Obs.Json.Obj [])));
  ]

(* The committed bench baselines, as dune copies them next to the test
   directory (or from the repo root when run by hand). *)
let committed_baseline name =
  let beside = Filename.concat Filename.parent_dir_name name in
  let path = if Sys.file_exists beside then beside else name in
  In_channel.with_open_bin path In_channel.input_all

(* Trees the printer round-trips: it writes floats at 12 significant
   digits, so the generator draws finite floats already at that
   precision; strings are arbitrary bytes, control characters
   included. *)
let json_gen =
  let open QCheck.Gen in
  let finite =
    map
      (fun f -> if Float.is_finite f then float_of_string (Printf.sprintf "%.12g" f) else 0.5)
      float
  in
  let str = string_size ~gen:char (0 -- 12) in
  let leaf =
    oneof
      [
        return Obs.Json.Null;
        map (fun b -> Obs.Json.Bool b) bool;
        map (fun i -> Obs.Json.Int i) int;
        map (fun f -> Obs.Json.Float f) finite;
        map (fun s -> Obs.Json.String s) str;
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 0 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun l -> Obs.Json.List l) (list_size (0 -- 4) (self (n / 2))));
               ( 1,
                 map (fun m -> Obs.Json.Obj m) (list_size (0 -- 4) (pair str (self (n / 2))))
               );
             ])

let reader_tests =
  let parses s = Result.is_ok (Obs.Json.of_string s) in
  [
    Test_seed.to_alcotest
      (QCheck.Test.make ~name:"of_string inverts to_string" ~count:500
         (QCheck.make ~print:Obs.Json.to_string json_gen)
         (fun t ->
           match Obs.Json.of_string (Obs.Json.to_string t) with
           | Ok t' -> t' = t
           | Error _ -> false));
    Alcotest.test_case "reads scalars, escapes and whitespace" `Quick (fun () ->
        let read s =
          match Obs.Json.of_string s with
          | Ok t -> Obs.Json.to_string t
          | Error e -> Alcotest.failf "%S: %s" s e
        in
        Alcotest.(check string) "int" "-42" (read " -42 ");
        Alcotest.(check string) "float" "0.027" (read "2.7e-2");
        Alcotest.(check string) "escapes" {|"a/b\nc\u0001"|} (read {|"a\/b\nc\u0001"|});
        Alcotest.(check string) "utf-8" "\"\xc3\xa9\"" (read {|"\u00E9"|});
        Alcotest.(check string) "nested" {|{"a":[1,{"b":null}],"c":true}|}
          (read "{ \"a\" : [ 1 , { \"b\" : null } ] ,\n \"c\" : true }"));
    Alcotest.test_case "both committed BENCH_*.json parse" `Quick (fun () ->
        List.iter
          (fun name ->
            match Obs.Json.of_string (committed_baseline name) with
            | Ok (Obs.Json.Obj members) ->
              Alcotest.(check bool) (name ^ " has sections") true
                (List.mem_assoc "sections" members)
            | Ok _ -> Alcotest.failf "%s is not an object" name
            | Error e -> Alcotest.failf "%s: %s" name e)
          ["BENCH_dataplane.json"; "BENCH_ribscale.json"]);
    Alcotest.test_case "malformed input is an Error, never an exception" `Quick
      (fun () ->
        List.iter
          (fun (what, s) -> Alcotest.(check bool) what false (parses s))
          [
            ("empty", "");
            ("truncated", {|{"a":[1,2|});
            ("truncated string", {|"abc|});
            ("trailing comma in a list", "[1,2,]");
            ("trailing comma in an object", {|{"a":1,}|});
            ("trailing garbage", {|{"a":1} x|});
            ("bad \\u escape", {|"\u12G4"|});
            ("short \\u escape", {|"\u12"|});
            ("surrogate escape", {|"\ud83d\ude00"|});
            ("raw control character", "\"a\nb\"");
            ("leading zero", "01");
            ("bare word", "nul");
            ("too deep", String.make 600 '[' ^ String.make 600 ']');
          ]);
  ]

let ring_tests =
  [
    Alcotest.test_case "unbounded ring grows and keeps order" `Quick (fun () ->
        let r = Obs.Ring.create () in
        for i = 0 to 99 do
          Obs.Ring.push r i
        done;
        Alcotest.(check int) "length" 100 (Obs.Ring.length r);
        Alcotest.(check int) "total" 100 (Obs.Ring.total r);
        Alcotest.(check int) "dropped" 0 (Obs.Ring.dropped r);
        Alcotest.(check (list int)) "order" (List.init 100 Fun.id)
          (Obs.Ring.to_list r));
    Alcotest.test_case "capped ring overwrites the oldest" `Quick (fun () ->
        let r = Obs.Ring.create ~capacity:3 () in
        List.iter (Obs.Ring.push r) [1; 2; 3; 4; 5];
        Alcotest.(check int) "length" 3 (Obs.Ring.length r);
        Alcotest.(check int) "total" 5 (Obs.Ring.total r);
        Alcotest.(check int) "dropped" 2 (Obs.Ring.dropped r);
        Alcotest.(check (list int)) "newest three" [3; 4; 5] (Obs.Ring.to_list r));
    Alcotest.test_case "clear resets counters" `Quick (fun () ->
        let r = Obs.Ring.create ~capacity:2 () in
        List.iter (Obs.Ring.push r) [1; 2; 3];
        Obs.Ring.clear r;
        Alcotest.(check int) "empty" 0 (Obs.Ring.length r);
        Alcotest.(check int) "total reset" 0 (Obs.Ring.total r);
        Obs.Ring.push r 9;
        Alcotest.(check (list int)) "usable after clear" [9] (Obs.Ring.to_list r));
    Test_seed.to_alcotest
      (QCheck.Test.make ~name:"capped ring = last [cap] pushes" ~count:300
         QCheck.(pair (1 -- 10) (list small_int))
         (fun (cap, xs) ->
           let r = Obs.Ring.create ~capacity:cap () in
           List.iter (Obs.Ring.push r) xs;
           let n = List.length xs in
           let expected = List.filteri (fun i _ -> i >= n - cap) xs in
           Obs.Ring.to_list r = expected
           && Obs.Ring.total r = n
           && Obs.Ring.dropped r = Stdlib.max 0 (n - cap)));
  ]

let histogram_tests =
  [
    Alcotest.test_case "percentiles on a known uniform distribution" `Quick
      (fun () ->
        let h = Obs.Histogram.create () in
        (* 1ms .. 1000ms in 1ms steps: p50 ~ 0.5s, p95 ~ 0.95s. *)
        for i = 1 to 1000 do
          Obs.Histogram.observe h (float_of_int i /. 1000.0)
        done;
        Alcotest.(check int) "count" 1000 (Obs.Histogram.count h);
        Alcotest.(check (float 1e-9)) "exact min" 0.001 (Obs.Histogram.min h);
        Alcotest.(check (float 1e-9)) "exact max" 1.0 (Obs.Histogram.max h);
        Alcotest.(check (float 1e-9)) "p0 = min" 0.001
          (Obs.Histogram.percentile h 0.0);
        Alcotest.(check (float 1e-9)) "p100 = max" 1.0
          (Obs.Histogram.percentile h 100.0);
        (* Log buckets at 20/decade have ~12% relative error. *)
        let p50 = Obs.Histogram.percentile h 50.0 in
        Alcotest.(check bool) "p50 within bucket error" true
          (p50 > 0.44 && p50 < 0.56);
        let p95 = Obs.Histogram.percentile h 95.0 in
        Alcotest.(check bool) "p95 within bucket error" true
          (p95 > 0.84 && p95 < 1.0 +. 1e-9));
    Alcotest.test_case "single sample: every percentile is that sample" `Quick
      (fun () ->
        let h = Obs.Histogram.create () in
        Obs.Histogram.observe h 0.027;
        List.iter
          (fun p ->
            Alcotest.(check (float 1e-9)) (Fmt.str "p%g" p) 0.027
              (Obs.Histogram.percentile h p))
          [0.0; 50.0; 90.0; 99.0; 100.0]);
    Alcotest.test_case "mean and sum are exact" `Quick (fun () ->
        let h = Obs.Histogram.create () in
        List.iter (Obs.Histogram.observe h) [1.0; 2.0; 3.0; 4.0];
        Alcotest.(check (float 1e-9)) "sum" 10.0 (Obs.Histogram.sum h);
        Alcotest.(check (float 1e-9)) "mean" 2.5 (Obs.Histogram.mean h));
    Alcotest.test_case "non-finite samples dropped, negatives clamp" `Quick
      (fun () ->
        let h = Obs.Histogram.create () in
        Obs.Histogram.observe h Float.nan;
        Obs.Histogram.observe h Float.infinity;
        Alcotest.(check int) "dropped" 0 (Obs.Histogram.count h);
        Obs.Histogram.observe h (-1.0);
        Alcotest.(check int) "negative kept" 1 (Obs.Histogram.count h));
    Alcotest.test_case "merge accumulates both histograms" `Quick (fun () ->
        let a = Obs.Histogram.create () and b = Obs.Histogram.create () in
        List.iter (Obs.Histogram.observe a) [0.010; 0.020];
        List.iter (Obs.Histogram.observe b) [0.030; 0.040];
        Obs.Histogram.merge_into ~into:a b;
        Alcotest.(check int) "count" 4 (Obs.Histogram.count a);
        Alcotest.(check (float 1e-9)) "min" 0.010 (Obs.Histogram.min a);
        Alcotest.(check (float 1e-9)) "max" 0.040 (Obs.Histogram.max a);
        Alcotest.(check (float 1e-9)) "sum" 0.1 (Obs.Histogram.sum a));
    Alcotest.test_case "merge rejects mismatched specs" `Quick (fun () ->
        let a = Obs.Histogram.create () in
        let b = Obs.Histogram.create ~buckets_per_decade:10 () in
        Alcotest.(check bool) "raises" true
          (try
             Obs.Histogram.merge_into ~into:a b;
             false
           with Invalid_argument _ -> true));
    Test_seed.to_alcotest
      (QCheck.Test.make ~name:"percentiles are monotone and bounded" ~count:200
         QCheck.(list_of_size Gen.(1 -- 50) (float_bound_exclusive 100.0))
         (fun xs ->
           let xs = List.map (fun x -> x +. 1e-5) xs in
           let h = Obs.Histogram.create () in
           List.iter (Obs.Histogram.observe h) xs;
           let ps = List.map (Obs.Histogram.percentile h) [0.; 25.; 50.; 75.; 100.] in
           let lo = Obs.Histogram.min h and hi = Obs.Histogram.max h in
           List.for_all (fun p -> p >= lo && p <= hi) ps
           && List.sort Float.compare ps = ps));
  ]

let metrics_tests =
  [
    Alcotest.test_case "counters are get-or-create" `Quick (fun () ->
        let m = Obs.Metrics.create () in
        let c = Obs.Metrics.counter m "x.count" in
        Obs.Metrics.incr c;
        Obs.Metrics.incr c ~by:4;
        let c' = Obs.Metrics.counter m "x.count" in
        Obs.Metrics.incr c';
        Alcotest.(check int) "shared" 6 (Obs.Metrics.counter_value c);
        Alcotest.(check (option int)) "find" (Some 6)
          (Obs.Metrics.find_counter m "x.count");
        Alcotest.(check (option int)) "absent" None
          (Obs.Metrics.find_counter m "nope"));
    Alcotest.test_case "gauges set and add" `Quick (fun () ->
        let m = Obs.Metrics.create () in
        let g = Obs.Metrics.gauge m "x.level" in
        Obs.Metrics.set g 3.0;
        Obs.Metrics.add g 1.5;
        Alcotest.(check (option (float 1e-9))) "value" (Some 4.5)
          (Obs.Metrics.find_gauge m "x.level"));
    Alcotest.test_case "registries are isolated" `Quick (fun () ->
        let a = Obs.Metrics.create () and b = Obs.Metrics.create () in
        Obs.Metrics.incr (Obs.Metrics.counter a "n");
        Alcotest.(check (option int)) "other registry empty" None
          (Obs.Metrics.find_counter b "n"));
    Alcotest.test_case "scope prefixes names" `Quick (fun () ->
        let m = Obs.Metrics.create () in
        let s = Obs.Metrics.Scope.v m "switch.e3800" in
        Obs.Metrics.incr (Obs.Metrics.Scope.counter s "flow_mods");
        Alcotest.(check (option int)) "prefixed" (Some 1)
          (Obs.Metrics.find_counter m "switch.e3800.flow_mods"));
    Alcotest.test_case "to_json snapshots with sorted names" `Quick (fun () ->
        let m = Obs.Metrics.create () in
        Obs.Metrics.incr (Obs.Metrics.counter m "b") ~by:2;
        Obs.Metrics.incr (Obs.Metrics.counter m "a");
        Obs.Metrics.set (Obs.Metrics.gauge m "g") 1.0;
        Obs.Histogram.observe (Obs.Metrics.histogram m "h") 0.5;
        match Obs.Metrics.to_json m with
        | Obs.Json.Obj
            [
              ("counters", Obs.Json.Obj counters);
              ("gauges", Obs.Json.Obj [("g", _)]);
              ("histograms", Obs.Json.Obj [("h", _)]);
            ] ->
          Alcotest.(check (list string)) "sorted" ["a"; "b"] (List.map fst counters)
        | _ -> Alcotest.fail "unexpected snapshot shape");
  ]

let suite =
  [
    ("obs.json", json_tests);
    ("obs.json.reader", reader_tests);
    ("obs.ring", ring_tests);
    ("obs.histogram", histogram_tests);
    ("obs.metrics", metrics_tests);
  ]
