(** The machine-readable proto-tier report ([dcp.lint.proto/v1]).

    A {!Dcp_json.Json.t} document like {!Report}'s. *)

val schema : string

val build :
  root:string ->
  units:Proto_flow.unit_sends list ->
  flow:Proto_flow.edge list ->
  call_graph:(string option * string * string) list ->
  exports:Proto_exports.counts ->
  findings:Finding.t list ->
  stale_baseline:string list ->
  Dcp_json.Json.t
(** Assemble the proto report.  [findings] should already be sorted and
    baseline-marked. *)
