(** The machine-readable lint report ([dcp.lint.report/v1]), a
    {!Dcp_json.Json.t} document. *)

val schema : string

val of_finding : Finding.t -> Dcp_json.Json.t
(** Shared with the proto-tier report ([Proto_report]). *)

val summary :
  rules:(string * Finding.family) list ->
  findings:Finding.t list ->
  stale_baseline:string list ->
  (string * Dcp_json.Json.t) list ->
  Dcp_json.Json.t
(** The summary block both reports share: total/active/baselined/stale
    counts, then the extra fields, then per-rule counts over [rules]. *)

val build :
  root:string ->
  files_scanned:int ->
  layers:Layers.lib list ->
  findings:Finding.t list ->
  stale_baseline:string list ->
  Dcp_json.Json.t
(** Assemble the report document.  [findings] should already be sorted and
    baseline-marked; layers are re-sorted by (rank, dir). *)
