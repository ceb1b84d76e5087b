(** The machine-readable lint report ([dcp.lint.report/v2]), a
    {!Dcp_json.Json.t} document: the layer graph, every unit's sends and
    handles, the message-flow graph, the export counts, every finding of
    both rule families, the stale baseline entries and one summary with
    per-rule counts over {!Finding.rules}.

    Inspection: {!schema} is named only by tests, which check the
    committed report's schema id against it. *)

val schema : string

val build :
  root:string ->
  layers:Layers.lib list ->
  units:Proto_flow.unit_sends list ->
  flow:Proto_flow.edge list ->
  exports:Proto_exports.counts ->
  findings:Finding.t list ->
  stale_baseline:string list ->
  Dcp_json.Json.t
(** Assemble the report document.  [findings] should already be sorted and
    baseline-marked; layers are re-sorted by (rank, dir). *)
