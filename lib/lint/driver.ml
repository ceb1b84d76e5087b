type outcome = {
  findings : Finding.t list;
  active : Finding.t list;
  stale_baseline : string list;
  files_scanned : int;
  layers : Layers.lib list;
  report : Dcp_json.Json.t;
}

let default_dirs = [ "lib"; "bin"; "examples" ]

let run ?(dirs = default_dirs) ~root ~baseline_path () =
  let layers = Layers.load ~root in
  let graph = Layers.graph_findings layers in
  let srcs = Discover.ml_files ~root ~dirs in
  let hygiene = Discover.missing_mli ~root srcs in
  let scanned =
    List.concat_map
      (fun src ->
        Scan.file ~path:src.Discover.path
          ~source:(Discover.read_file (Filename.concat root src.Discover.path)))
      srcs
  in
  let findings = List.sort Finding.order (graph @ hygiene @ scanned) in
  let baseline = Baseline.load ~path:baseline_path in
  Baseline.apply baseline findings;
  let stale_baseline = Baseline.stale baseline in
  let active = List.filter (fun f -> not f.Finding.baselined) findings in
  let report =
    Report.build ~root ~files_scanned:(List.length srcs) ~layers ~findings ~stale_baseline
  in
  { findings; active; stale_baseline; files_scanned = List.length srcs; layers; report }

let pp_outcome ppf t =
  List.iter (fun f -> Format.fprintf ppf "%a@." Finding.pp f) t.active;
  List.iter
    (fun key -> Format.fprintf ppf "error: stale baseline entry (fixed? prune it): %s@." key)
    t.stale_baseline;
  Format.fprintf ppf "dcp_lint: %d files, %d findings (%d active, %d baselined)@."
    t.files_scanned (List.length t.findings) (List.length t.active)
    (List.length t.findings - List.length t.active)
