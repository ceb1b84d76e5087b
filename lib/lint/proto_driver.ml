(* Orchestrates the proto tier: extract -> summaries -> sends -> flow /
   reply checks -> exports -> baseline -> report.  [analyze] is pure over
   in-memory (path, source) pairs so tests can drive it on fixtures without
   a directory tree; [run] wires it to [Discover] like the per-file tier. *)

(* Rules reported but not build-failing: the proto baseline still
   grandfathers them, and unbaselined ones surface as warnings. *)
let warning_rules = [ "proto-unreachable-handler" ]

(* Read only as sources of uses for the unused-export rule; every other
   rule keeps to [Driver.default_dirs]. *)
let use_only_dirs = [ "bench"; "bench/e2e"; "test" ]

let use_only path =
  List.exists (fun d -> String.starts_with ~prefix:(d ^ "/") path) use_only_dirs

type outcome = {
  findings : Finding.t list;
  active : Finding.t list;
  warnings : Finding.t list;
  stale_baseline : string list;
  units_scanned : int;
  edges : Proto_flow.edge list;
  report : Dcp_json.Json.t;
  dot : string;
}

let is_warning f = List.exists (String.equal f.Finding.rule) warning_rules

let analyze ~root ~units:pairs ~baseline =
  let interfaces, pairs =
    List.partition (fun (path, _) -> Filename.check_suffix path ".mli") pairs
  in
  let loaded = List.map (fun (path, source) -> Proto_extract.load ~path ~source) pairs in
  let units = List.filter (fun u -> not (use_only u.Proto_extract.u_path)) loaded in
  let env = Proto_summary.build units in
  let resolved = List.map (fun u -> (u, Proto_summary.collect_sends env u)) units in
  let per_unit =
    List.map (fun (u, (sends, _)) -> { Proto_flow.us_unit = u; us_sends = sends }) resolved
  in
  let escapes = List.concat_map (fun (_, (_, es)) -> es) resolved in
  let handled = Proto_flow.handled_names units in
  let sent = Proto_flow.sent_names per_unit in
  let obligated = Proto_reply.obligated_names units in
  let unused_exports, exports = Proto_exports.check ~interfaces ~units:loaded in
  let findings =
    List.sort Finding.order
      (Proto_flow.dead_letters ~handled per_unit
      @ Proto_flow.unreachable ~sent units
      @ List.concat_map (Proto_reply.check env ~obligated) units
      @ escapes @ unused_exports)
  in
  Baseline.apply baseline findings;
  let stale_baseline = Baseline.stale baseline in
  let unbaselined = List.filter (fun f -> not f.Finding.baselined) findings in
  let active = List.filter (fun f -> not (is_warning f)) unbaselined in
  let warnings = List.filter is_warning unbaselined in
  let edges = Proto_flow.edges units per_unit in
  let call_graph = Proto_summary.call_edges env in
  let report =
    Proto_report.build ~root ~units:per_unit ~flow:edges ~call_graph ~exports ~findings
      ~stale_baseline
  in
  {
    findings;
    active;
    warnings;
    stale_baseline;
    units_scanned = List.length units;
    edges;
    report;
    dot = Proto_flow.dot edges;
  }

let run ~root ~baseline_path () =
  let srcs =
    Discover.ml_files ~root ~dirs:(Driver.default_dirs @ use_only_dirs)
    @ Discover.mli_files ~root
  in
  let pairs =
    List.map
      (fun s ->
        (s.Discover.path, Discover.read_file (Filename.concat root s.Discover.path)))
      srcs
  in
  let baseline = Baseline.load ~path:baseline_path in
  analyze ~root ~units:pairs ~baseline

let pp_outcome ppf t =
  List.iter (fun f -> Format.fprintf ppf "%a@." Finding.pp f) t.active;
  List.iter (fun f -> Format.fprintf ppf "warning: %a@." Finding.pp f) t.warnings;
  List.iter
    (fun key ->
      Format.fprintf ppf "error: stale proto baseline entry (fixed? prune it): %s@." key)
    t.stale_baseline;
  Format.fprintf ppf
    "dcp_lint[proto]: %d units, %d flow edges, %d findings (%d active, %d warnings, %d \
     baselined)@."
    t.units_scanned (List.length t.edges) (List.length t.findings) (List.length t.active)
    (List.length t.warnings)
    (List.length t.findings - List.length t.active - List.length t.warnings)
