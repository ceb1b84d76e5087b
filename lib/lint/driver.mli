(** The whole pass: one parse per unit, both rule families, one baseline,
    one report.

    Inspection: {!analyze} is called only by tests, which drive the
    analyzer over in-memory fixtures through it. *)

type outcome = {
  findings : Finding.t list;  (** everything, sorted by {!Finding.order}, baseline-marked *)
  active : Finding.t list;  (** unbaselined, error tier: these fail the build *)
  warnings : Finding.t list;  (** unbaselined, warning tier *)
  stale_baseline : string list;  (** baseline entries matching nothing *)
  files_scanned : int;  (** units under [lib/], [bin/] and [examples/] *)
  edges : Proto_flow.edge list;
  report : Dcp_json.Json.t;  (** the [dcp.lint.report/v2] document *)
  dot : string;  (** graphviz export of [edges] *)
}

val analyze :
  root:string ->
  layers:Layers.lib list ->
  missing_mli:Finding.t list ->
  units:(string * string) list ->
  baseline:Baseline.t ->
  outcome
(** Pure entry point over in-memory [(path, source)] pairs — the fixture
    tests drive this directly.  [.mli] pairs are the interfaces the
    unused-export rule checks; [.ml] pairs under [bench/] and [test/] are
    read only as its sources of uses; every other [.ml] pair is linted by
    every rule.  [layers] and [missing_mli] come from the tree
    ({!Layers.load}, {!Discover.missing_mli}); fixtures pass [[]]. *)

val run : root:string -> baseline_path:string -> outcome
(** Discover the whole program — every [.ml] under [lib/], [bin/],
    [examples/], [bench/], [bench/e2e/] and [test/], every [.mli] under
    [lib/] and the [lib/*/dune] layer graph — and analyze it against the
    baseline file. *)

val pp_outcome : Format.formatter -> outcome -> unit
(** Human output: active findings as [file:line:col: [rule] message] lines,
    warnings, stale-baseline errors, and a one-line summary. *)
