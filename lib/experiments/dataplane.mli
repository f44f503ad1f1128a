(** Data-plane throughput benchmark (the [sc_lab bench dataplane] section).

    Measures the packet-forwarding hot path this PR series rebuilds:
    LPM lookups/sec over internet-shaped tables from 10 k to 1 M
    prefixes — the {!Net.Lpm} per-bit trie against the flat
    stride-compressed {!Net.Flat_fib}, single-call and batched — and
    packets/sec through {!Openflow.Switch} and {!Router.Legacy},
    single-packet receive against the batched receive paths. Wall-clock
    timing; inputs are deterministic in [seed]. *)

type lpm_row = {
  prefixes : int;
  trie_lps : float;       (** {!Net.Lpm.lookup} lookups/sec *)
  flat_lps : float;       (** {!Net.Flat_fib.lookup_value} lookups/sec *)
  flat_batch_lps : float; (** {!Net.Flat_fib.lookup_batch} lookups/sec *)
}

type fwd_row = {
  fw_component : string;  (** ["switch"] or ["legacy_router"] *)
  fw_rules : int;
  fw_packets : int;
  fw_batch : int;
  single_pps : float;
  batch_pps : float;
}

type report = {
  lpm : lpm_row list;
  lpm_lookups : int;  (** lookups per structure per row *)
  forwarding : fwd_row list;
}

val run :
  ?sizes:int list ->
  ?lookups:int ->
  ?fwd_packets:int ->
  ?switch_rules:int ->
  ?router_routes:int ->
  ?batch:int ->
  ?seed:int64 ->
  ?progress:(string -> unit) ->
  unit ->
  report
(** Defaults: [sizes] 10 k/100 k/1 M prefixes, [lookups] 1 M per
    structure per size, [fwd_packets] 200 k, [switch_rules] 24,
    [router_routes] 4096, [batch] 128, [seed] 11. *)

val to_json : report -> Obs.Json.t
val pp_report : Format.formatter -> report -> unit
