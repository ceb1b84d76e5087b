(** The whole pass: layer graph, hygiene, per-file scans, baseline, report. *)

type outcome = {
  findings : Finding.t list;  (** everything, sorted by {!Finding.order} *)
  active : Finding.t list;  (** findings not covered by the baseline *)
  stale_baseline : string list;  (** baseline entries matching nothing *)
  files_scanned : int;
  layers : Layers.lib list;
  report : Dcp_json.Json.t;  (** the [dcp.lint.report/v1] document *)
}

val default_dirs : string list
(** [lib], [bin], [examples]. *)

val run : ?dirs:string list -> root:string -> baseline_path:string -> unit -> outcome

val pp_outcome : Format.formatter -> outcome -> unit
(** Human output: active findings as [file:line:col: [rule] message] lines,
    stale-baseline warnings, and a one-line summary. *)
