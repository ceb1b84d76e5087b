(* Paper-invariant and determinism static analysis over the tree:

     dcp_lint.exe [--root DIR] [--baseline FILE] [--json FILE] [--dot FILE]
                  [--update-baseline] [--quiet]
     dcp_lint.exe --explain RULE

   One pass parses every unit once and runs both rule families over that
   parse: the per-file rules (isolation, layer DAG, transmittability,
   determinism, hygiene) and the whole-program rules (message-flow graph,
   dead letters, reply obligations, interprocedural escapes, unused
   exports).

   Exit 0 when every finding is baselined (or a warning) and no baseline
   entry is stale, 1 when active findings or stale baseline entries
   remain, 2 on usage or internal errors.  `--update-baseline` rewrites the
   baseline's keys to cover every current finding and keeps its comment
   lines (review the diff before committing — that is the documented path
   for accepting a new grandfathered finding). *)

module Driver = Dcp_lint.Driver
module Baseline = Dcp_lint.Baseline
module Json = Dcp_json.Json
module Finding = Dcp_lint.Finding

let usage () =
  prerr_endline
    "usage: dcp_lint.exe [--root DIR] [--baseline FILE] [--json FILE] [--dot FILE]\n\
    \       [--update-baseline] [--quiet]\n\
    \       dcp_lint.exe --explain RULE";
  exit 2

let explain rule =
  match Finding.explain rule with
  | Some doc ->
      Printf.printf "%s: %s\n" rule doc;
      exit 0
  | None ->
      Printf.eprintf "dcp_lint: unknown rule %S; known rules:\n" rule;
      List.iter (fun (r, _) -> Printf.eprintf "  %s\n" r) Finding.rules;
      exit 2

(* The graphviz export is consumed by `dot`; a malformed or empty file
   should fail the @lint rule, so sanity-check before writing. *)
let check_dot dot =
  let balanced =
    let depth = ref 0 in
    let ok = ref true in
    String.iter
      (fun c ->
        match c with
        | '{' -> incr depth
        | '}' ->
            decr depth;
            if !depth < 0 then ok := false
        | _ -> ())
      dot;
    !ok && !depth = 0
  in
  if String.length dot = 0 then failwith "empty dot export";
  if not (String.length dot >= 7 && String.equal (String.sub dot 0 7) "digraph") then
    failwith "dot export does not start with 'digraph'";
  if not balanced then failwith "unbalanced braces in dot export"

let () =
  let root = ref "." in
  let baseline_path = ref "lint_baseline.txt" in
  let json_path = ref None in
  let dot_path = ref None in
  let update = ref false in
  let quiet = ref false in
  let rec parse_args = function
    | [] -> ()
    | "--root" :: v :: rest ->
        root := v;
        parse_args rest
    | "--baseline" :: v :: rest ->
        baseline_path := v;
        parse_args rest
    | "--json" :: v :: rest ->
        json_path := Some v;
        parse_args rest
    | "--dot" :: v :: rest ->
        dot_path := Some v;
        parse_args rest
    | "--explain" :: rule :: rest ->
        if rest <> [] then usage ();
        explain rule
    | "--update-baseline" :: rest ->
        update := true;
        parse_args rest
    | "--quiet" :: rest ->
        quiet := true;
        parse_args rest
    | _ -> usage ()
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let baseline_path =
    if Filename.is_relative !baseline_path then Filename.concat !root !baseline_path
    else !baseline_path
  in
  let outcome =
    try Driver.run ~root:!root ~baseline_path
    with exn ->
      Printf.eprintf "dcp_lint: %s\n" (Printexc.to_string exn);
      exit 2
  in
  Option.iter (fun path -> Json.to_file path outcome.Driver.report) !json_path;
  Option.iter
    (fun path ->
      try
        check_dot outcome.Driver.dot;
        Out_channel.with_open_text path (fun oc -> output_string oc outcome.Driver.dot)
      with exn ->
        Printf.eprintf "dcp_lint: %s\n" (Printexc.to_string exn);
        exit 2)
    !dot_path;
  if !update then begin
    Baseline.save ~path:baseline_path outcome.Driver.findings;
    if not !quiet then
      Printf.printf "dcp_lint: wrote %d baseline entries to %s\n"
        (List.length
           (List.sort_uniq String.compare (List.map Finding.key outcome.Driver.findings)))
        baseline_path
  end
  else begin
    (* --quiet silences the all-clear summary only; active findings and
       stale baseline entries must always reach the build log. *)
    let bad = outcome.Driver.active <> [] || outcome.Driver.stale_baseline <> [] in
    if (not !quiet) || bad then Format.printf "%a@?" Driver.pp_outcome outcome;
    if bad then exit 1
  end
