(* The immediate-int scalars (Sim.Time, Net.Ipv4, Net.Mac, Net.Prefix)
   against the boxed int32/int64 formulas they replaced. Every Hashtbl
   keyed on one of them iterates in bucket order, so the hashes must
   stay bit-identical for simulated output to stay byte-identical; the
   orders must stay the same for every sorted output. The second half
   checks at runtime that the scalar operations, the [Sim.Rng] integer
   and boolean draws and the [@lint.zero_alloc] lookups allocate
   nothing. *)

open Net

let sign x = Int.compare x 0

(* Edge values first (bit 31 set or clear, all ones), then random ones. *)
let gen_int32 =
  QCheck.Gen.(
    frequency
      [
        ( 1,
          oneofl
            [ 0l; 1l; -1l; Int32.max_int; Int32.min_int; 0x7FFF_FFFEl; 0x8000_0001l ] );
        (4, map Int32.of_int int);
      ])

let arb_int32 = QCheck.make ~print:Int32.to_string gen_int32
let arb_ipv4 = QCheck.map ~rev:Ipv4.to_int32 Ipv4.of_int32 arb_int32
let arb_ipv4_pair = QCheck.pair arb_ipv4 arb_ipv4

let arb_prefix =
  QCheck.map
    (fun (a, len) -> Prefix.make a len)
    QCheck.(pair arb_ipv4 (0 -- 32))

(* The formulas of the int32/int64 representations, verbatim. *)
let old_ipv4_hash a = Int32.to_int (Ipv4.to_int32 a) land max_int
let old_mac_hash m = Int64.to_int (Mac.to_int64 m) land max_int

let old_prefix_hash p =
  let h =
    (old_ipv4_hash (Prefix.network p) * 0x9E3779B1)
    lxor (Prefix.length p * 0x85EBCA6B)
  in
  (h lxor (h lsr 16)) land max_int

let old_time_pp ppf t =
  let t = Sim.Time.to_ns t in
  let abs = Int64.abs t in
  let lt a b = Int64.compare a b < 0 in
  let f = Int64.to_float t in
  if lt abs 1_000L then Fmt.pf ppf "%Ldns" t
  else if lt abs 1_000_000L then Fmt.pf ppf "%.3fus" (f /. 1e3)
  else if lt abs 1_000_000_000L then Fmt.pf ppf "%.3fms" (f /. 1e6)
  else Fmt.pf ppf "%.6fs" (f /. 1e9)

let prop name ?(count = 1000) arb f =
  Test_seed.to_alcotest (QCheck.Test.make ~name ~count arb f)

let parity_tests =
  [
    prop "Ipv4.compare is Int32.unsigned_compare" arb_ipv4_pair (fun (a, b) ->
        sign (Ipv4.compare a b)
        = sign (Int32.unsigned_compare (Ipv4.to_int32 a) (Ipv4.to_int32 b)));
    prop "Ipv4.hash is the int32 hash" arb_ipv4 (fun a -> Ipv4.hash a = old_ipv4_hash a);
    prop "Ipv4 of_int32/to_int32 round-trip" arb_int32 (fun x ->
        Int32.equal (Ipv4.to_int32 (Ipv4.of_int32 x)) x);
    prop "Ipv4.to_int is the unsigned int32" arb_int32 (fun x ->
        Ipv4.to_int (Ipv4.of_int32 x) = Int32.to_int x land 0xFFFF_FFFF);
    prop "Ipv4.add and diff wrap like int32" QCheck.(pair arb_ipv4 int) (fun (a, n) ->
        Int32.equal
          (Ipv4.to_int32 (Ipv4.add a n))
          (Int32.add (Ipv4.to_int32 a) (Int32.of_int n))
        && Ipv4.diff (Ipv4.add a n) a = n land 0xFFFF_FFFF);
    prop "Mac.hash is the int64 hash" QCheck.int64 (fun x ->
        let m = Mac.of_int64 x in
        Mac.hash m = old_mac_hash m);
    prop "Mac of_int64 keeps the low 48 bits" QCheck.int64 (fun x ->
        Int64.equal (Mac.to_int64 (Mac.of_int64 x)) (Int64.logand x 0xFFFF_FFFF_FFFFL));
    prop "Mac.compare is Int64.compare" QCheck.(pair int64 int64) (fun (x, y) ->
        let a = Mac.of_int64 x and b = Mac.of_int64 y in
        sign (Mac.compare a b) = sign (Int64.compare (Mac.to_int64 a) (Mac.to_int64 b)));
    prop "Prefix.hash is the record hash" arb_prefix (fun p -> Prefix.hash p = old_prefix_hash p);
    prop "Prefix.compare is (network unsigned, length)"
      QCheck.(pair arb_prefix arb_prefix)
      (fun (p, q) ->
        let c = Int32.unsigned_compare (Ipv4.to_int32 (Prefix.network p))
            (Ipv4.to_int32 (Prefix.network q)) in
        let want = if c <> 0 then c else Int.compare (Prefix.length p) (Prefix.length q) in
        sign (Prefix.compare p q) = sign want
        && Prefix.equal p q = (want = 0));
    prop "Prefix.make clears the host bits like int32" QCheck.(pair arb_int32 (0 -- 32))
      (fun (x, len) ->
        let p = Prefix.make (Ipv4.of_int32 x) len in
        let mask = if len = 0 then 0l else Int32.shift_left (-1l) (32 - len) in
        Prefix.length p = len
        && Int32.equal (Ipv4.to_int32 (Prefix.network p)) (Int32.logand x mask)
        && Int32.equal
             (Ipv4.to_int32 (Prefix.last p))
             (Int32.logor (Int32.logand x mask) (Int32.lognot mask)));
    prop "Time of_ns/to_ns round-trip"
      QCheck.(map Int64.of_int int)
      (fun x -> Int64.equal (Sim.Time.to_ns (Sim.Time.of_ns x)) x);
    Alcotest.test_case "Time prints as the int64 rendering did" `Quick (fun () ->
        let around n = [ n - 1; n; n + 1 ] in
        let points =
          List.concat_map around [ 0; 1_000; 1_000_000; 1_000_000_000; 60_000_000_000 ]
          @ [ 999_999_999_999; 116_130_000; 70_000; 281_000; max_int / 2 ]
        in
        List.iter
          (fun n ->
            List.iter
              (fun n ->
                let t = Sim.Time.of_int n in
                Alcotest.(check string)
                  (Fmt.str "%d ns" n)
                  (Fmt.str "%a" old_time_pp t) (Sim.Time.to_string t))
              [ n; -n ])
          points);
    Alcotest.test_case "edge addresses keep their int32 hash and order" `Quick (fun () ->
        let hi = Ipv4.of_octets 255 255 255 255 and mid = Ipv4.of_octets 128 0 0 0 in
        Alcotest.(check int) "255.255.255.255" (Int32.to_int (-1l) land max_int) (Ipv4.hash hi);
        Alcotest.(check int) "128.0.0.0" (Int32.to_int Int32.min_int land max_int)
          (Ipv4.hash mid);
        Alcotest.(check bool) "127.255.255.255 < 128.0.0.0" true
          (Ipv4.compare (Ipv4.of_octets 127 255 255 255) mid < 0);
        Alcotest.(check bool) "0.0.0.0/0 < 0.0.0.0/8 < 128.0.0.0/1" true
          (Prefix.compare (Prefix.v "0.0.0.0/0") (Prefix.v "0.0.0.0/8") < 0
          && Prefix.compare (Prefix.v "0.0.0.0/8") (Prefix.v "128.0.0.0/1") < 0));
  ]

(* Minor words [f] allocates over [rounds] calls, less the harness's own
   overhead (measured the same way around a no-op). *)
let rounds = 1000

let words f =
  f ();
  let before = Gc.minor_words () in
  for _ = 1 to rounds do
    f ()
  done;
  Gc.minor_words () -. before

let zero_alloc name f =
  let overhead = words (fun () -> ()) in
  Alcotest.(check (float 0.)) (name ^ ": minor words") overhead (words f)

let addrs =
  Array.init 64 (fun i -> Ipv4.of_octets (1 + (i mod 200)) (i * 7 land 0xff) (i * 13 land 0xff) i)

let alloc_tests =
  [
    Alcotest.test_case "scalar operations allocate nothing" `Quick (fun () ->
        let sink = ref 0 in
        let t0 = Sim.Time.of_ms 280 and step = Sim.Time.of_us 281 in
        zero_alloc "Sim.Time" (fun () ->
            let t = Sim.Time.add (Sim.Time.mul step 3) t0 in
            let t = Sim.Time.max t (Sim.Time.sub t step) in
            sink := !sink + Sim.Time.compare t t0 + Sim.Time.to_int t);
        zero_alloc "Net.Ipv4" (fun () ->
            for i = 0 to Array.length addrs - 1 do
              let a = addrs.(i) in
              sink :=
                !sink + Ipv4.hash a + Ipv4.compare a addrs.(0)
                + Ipv4.to_int (Ipv4.add a 1) + Ipv4.diff a Ipv4.any
            done);
        zero_alloc "Net.Mac" (fun () ->
            let m = Mac.of_int (!sink land 0xFFFF) in
            sink := !sink + Mac.hash m + Mac.compare m Mac.broadcast + Mac.to_int m);
        zero_alloc "Net.Prefix" (fun () ->
            for i = 0 to Array.length addrs - 1 do
              let p = Prefix.make addrs.(i) (8 + (i mod 25)) in
              sink :=
                !sink + Prefix.hash p + Prefix.length p
                + Ipv4.to_int (Prefix.network p)
                + Prefix.compare p Prefix.default_route
                + Bool.to_int (Prefix.mem addrs.(i) p)
            done);
        Alcotest.(check bool) "work done" true (!sink <> 0));
    Alcotest.test_case "Sim.Rng int and bool draws allocate nothing" `Quick (fun () ->
        let rng = Sim.Rng.create ~seed:3L and sink = ref 0 in
        zero_alloc "Sim.Rng.int" (fun () -> sink := !sink + Sim.Rng.int rng 1000);
        zero_alloc "Sim.Rng.bool" (fun () -> if Sim.Rng.bool rng then incr sink);
        Alcotest.(check bool) "draws landed" true (!sink > 0));
    Alcotest.test_case "Flat_fib and Router.Fib lookups allocate nothing" `Quick (fun () ->
        let fib = Flat_fib.create () in
        let engine = Sim.Engine.create () in
        let rfib = Router.Fib.create engine ~batch_start_latency:Sim.Time.zero
            ~per_entry_latency:Sim.Time.zero () in
        Array.iteri
          (fun i a ->
            let len = [| 8; 16; 20; 24; 28; 32 |].(i mod 6) in
            let adj = Router.Adjacency.make ~interface:(i mod 4) ~mac:(Mac.of_int (i + 1)) in
            Flat_fib.insert fib (Prefix.make a len) i;
            Router.Fib.enqueue rfib (Router.Fib.Set (Prefix.make a len, adj)))
          addrs;
        Sim.Engine.run engine;
        let out = Array.make (Array.length addrs) None in
        let rout = Array.make (Array.length addrs) None in
        zero_alloc "Flat_fib.lookup_value" (fun () ->
            for i = 0 to Array.length addrs - 1 do
              ignore (Flat_fib.lookup_value fib addrs.(i))
            done);
        zero_alloc "Flat_fib.lookup_batch" (fun () -> Flat_fib.lookup_batch fib addrs out);
        zero_alloc "Router.Fib.lookup_batch" (fun () -> Router.Fib.lookup_batch rfib addrs rout);
        Alcotest.(check bool) "every address resolves" true
          (Array.for_all Option.is_some out && Array.for_all Option.is_some rout));
  ]

let suite = [ ("scalars.parity", parity_tests); ("scalars.zero_alloc", alloc_tests) ]
