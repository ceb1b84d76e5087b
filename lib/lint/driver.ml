(* The whole pass: parse every unit once, run both rule families over that
   parse (the per-file Scan rules; the whole-program extract -> summaries
   -> sends -> flow / reply checks -> exports), apply the one baseline and
   build the one report.  [analyze] is pure over in-memory (path, source)
   pairs so tests can drive it on fixtures without a directory tree; [run]
   wires it to [Discover] and adds the rules that read the tree itself. *)

(* Rules reported but not build-failing: the baseline still grandfathers
   them, and unbaselined ones surface as warnings. *)
let warning_rules = [ "proto-unreachable-handler" ]

(* Every rule reads [lint_dirs]; [use_only_dirs] are read only as sources
   of uses for the unused-export rule. *)
let lint_dirs = [ "lib"; "bin"; "examples" ]
let use_only_dirs = [ "bench"; "bench/e2e"; "test" ]

let use_only path =
  List.exists (fun d -> String.starts_with ~prefix:(d ^ "/") path) use_only_dirs

type outcome = {
  findings : Finding.t list;
  active : Finding.t list;
  warnings : Finding.t list;
  stale_baseline : string list;
  files_scanned : int;
  edges : Proto_flow.edge list;
  report : Dcp_json.Json.t;
  dot : string;
}

let is_warning f = List.exists (String.equal f.Finding.rule) warning_rules

let analyze ~root ~layers ~missing_mli ~units:pairs ~baseline =
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
      (Layers.graph_findings layers @ missing_mli
      @ List.concat_map Scan.file units
      @ Proto_flow.dead_letters ~handled per_unit
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
  let report =
    Report.build ~root ~layers ~units:per_unit ~flow:edges ~exports ~findings ~stale_baseline
  in
  {
    findings;
    active;
    warnings;
    stale_baseline;
    files_scanned = List.length units;
    edges;
    report;
    dot = Proto_flow.dot edges;
  }

let run ~root ~baseline_path =
  let srcs = Discover.ml_files ~root ~dirs:(lint_dirs @ use_only_dirs) in
  let read (s : Discover.src) = (s.path, Discover.read_file (Filename.concat root s.path)) in
  analyze ~root ~layers:(Layers.load ~root) ~missing_mli:(Discover.missing_mli ~root srcs)
    ~units:(List.map read (srcs @ Discover.mli_files ~root))
    ~baseline:(Baseline.load ~path:baseline_path)

let pp_outcome ppf t =
  List.iter (fun f -> Format.fprintf ppf "%a@." Finding.pp f) t.active;
  List.iter (fun f -> Format.fprintf ppf "warning: %a@." Finding.pp f) t.warnings;
  List.iter
    (fun key -> Format.fprintf ppf "error: stale baseline entry (fixed? prune it): %s@." key)
    t.stale_baseline;
  Format.fprintf ppf
    "dcp_lint: %d files, %d flow edges, %d findings (%d active, %d warnings, %d baselined)@."
    t.files_scanned (List.length t.edges) (List.length t.findings) (List.length t.active)
    (List.length t.warnings)
    (List.length t.findings - List.length t.active - List.length t.warnings)
