(** The [bench/v1] JSON format: the one envelope writer and the one
    baseline diff. Every bench artifact, the committed [BENCH_*.json]
    included, is [{"schema":"bench/v1","quick":…,"full":…,"sections":{…}}]. *)

type profile = Quick | Paper | Full  (** reduced, the paper's, the paper's × 3 reps *)

val envelope : profile -> (string * Obs.Json.t) list -> Obs.Json.t

type severity = Fail | Warn
type finding = { severity : severity; title : string; message : string }

val diff : baseline:Obs.Json.t -> run:Obs.Json.t -> finding list
(** Holds each section of [baseline] to the same section of [run]
    through a constant per-section rule table ([dataplane],
    [ribscale]): throughput below 0.70× the baseline at a matching row,
    or [peer_down_visits] past 2 × max 1 baseline, fails; ratio and
    group-reuse drift, empty baselines and unmatched tables warn. A
    section with no rule set or missing from [run], a document that is
    not [bench/v1] and a malformed row fail too. Never raises. *)

val pp_finding : Format.formatter -> finding -> unit
(** A GitHub Actions annotation: [::error title=T::M] or [::warning …]. *)
