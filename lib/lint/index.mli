(** The whole-program index: per-file facts and their assembly.

    [extract] runs once per parsed file and distils everything the
    whole-program passes need into plain data: the
    module-level bindings with their qualified names, arities and raw
    references (an approximate call graph), every module-level mutable
    value with its concurrency classification, ambient-nondeterminism
    sites, [[@lint.*]] annotations, and the per-file rule diagnostics
    themselves. [build] then assembles the files into one index that
    {!Passes} walks without ever touching an AST.

    Annotation vocabulary (unknown or malformed [lint.*] attributes are
    themselves a [lint-annotation] error):

    - [[@@lint.domain_local "rationale"]] — this mutable global is owned
      by a single domain; the rationale is a trusted human assertion.
    - [[@@lint.guarded_by "m"]] — every access holds the sibling Mutex
      binding [m] (validated to exist and be a [Mutex.create]).
    - [[@@lint.domain_entry "rationale"]] — this function is (or will
      be) the entry point of its own domain; everything it reaches is
      checked by the [cross-domain-unsafe] pass.
    - [[@@lint.zero_alloc]] — this function's body must not allocate
      per call; checked conservatively (see {!Passes}). *)

type classification =
  | Atomic
  | Mutex_guard
  | Mutex_guarded of string
  | Domain_local of string
  | Unguarded

val classification_to_string : classification -> string

type site = { s_line : int; s_col : int; s_what : string }
type apply = { ap_path : string; ap_args : int; ap_line : int; ap_col : int }

type binding = {
  b_qname : string;
  b_file : string;
  b_line : int;
  b_col : int;
  b_arity : int;
  b_has_labels : bool;
  b_refs : string list;
  b_mutable : (string * classification) option;
  b_guarded_by : string option;
  b_domain_entry : string option;
  b_zero_alloc : bool;
  b_nondet : site list;
  b_applies : apply list;
}

type allow = { al_rules : string list; al_from : int; al_to : int }

type file_facts = {
  ff_file : string;
  ff_module : string;
  ff_library : string;
  ff_diags : Diagnostic.t list;
  ff_allows : allow list;
  ff_aliases : (string * string) list;
  ff_bindings : binding list;
}

type t = {
  files : file_facts list;
  bindings : (string, binding) Hashtbl.t;
  libraries : Set.Make(String).t;
}

val rule_annotation : string
(** ["lint-annotation"] — malformed or unknown [[@lint.*]] attribute. *)

val library_name : root:string -> string -> string
(** The wrapping library module for a file, read from the [(name _)]
    stanza of the directory's [dune] when present (so [lib/core] maps
    to [Supercharger]), else the capitalized directory basename. *)

val module_name : library:string -> string -> string
(** ["Obs.Metrics"] for [lib/obs/metrics.ml]; a file named like its
    library is the library root module itself. *)

val extract : file:string -> library:string -> Parsetree.structure -> file_facts
(** One pass over one parsed file: per-file rules (via {!Rules}),
    annotation validation, mutable-global classification, reference
    and nondeterminism collection, and the per-file half of the
    zero-alloc body check. *)

val build : file_facts list -> t
val find : t -> string -> binding option
val facts_for : t -> string -> file_facts option

val resolve : t -> from:file_facts -> string -> string option
(** Resolve a raw dotted path as written in [from] to an indexed
    qualified name: a local top-level value, a sibling module of the
    same library, or a fully qualified [Lib.Module.value]. [None] for
    stdlib/external/local names — the conservative answer for
    reachability. *)

val suppressed : file_facts -> Diagnostic.t -> bool
(** Does one of the file's [[@lint.allow]] ranges cover this
    diagnostic? *)

val globals : t -> (file_facts * binding * (string * classification)) list
(** Every module-level mutable value in [lib/], with its kind and
    classification — the raw material of LINT_STATE.json. *)

val domain_entries : t -> (file_facts * binding * string) list
(** Every [[@@lint.domain_entry]] binding with its rationale. *)
