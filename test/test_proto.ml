(* The whole-program proto tier: each fixture trips exactly its rule, the
   clean fixture is silent, the unused-export rule sees every way a unit
   can name a val, the proto report round-trips through the JSON reader,
   every committed JSON artifact parses with its schema id, and the real
   tree is clean modulo the committed proto baseline. *)

module Finding = Dcp_lint.Finding
module Baseline = Dcp_lint.Baseline
module Proto_report = Dcp_lint.Proto_report
module Proto_driver = Dcp_lint.Proto_driver
module Json = Dcp_json.Json

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let read_fixture name = read_file (Filename.concat "lint_fixtures" name)

(* Analyze a fixture set as one whole program rooted at fabricated lib
   paths. *)
let analyze names =
  let units = List.map (fun (path, fixture) -> (path, read_fixture fixture)) names in
  Proto_driver.analyze ~root:"." ~units ~baseline:(Baseline.empty ())

let rules_of findings = List.map (fun f -> f.Finding.rule) findings

let has ~rule ?token findings =
  List.exists
    (fun f ->
      String.equal f.Finding.rule rule
      && match token with None -> true | Some t -> String.equal f.Finding.token t)
    findings

let test_dead_letter () =
  let o = analyze [ ("lib/demo/proto_dead_letter.ml", "proto_dead_letter.ml") ] in
  Alcotest.(check bool)
    (Printf.sprintf "peer_vanished is a dead letter (got: %s)"
       (String.concat ", " (rules_of o.Proto_driver.active)))
    true
    (has ~rule:"proto-dead-letter" ~token:"peer_vanished" o.Proto_driver.active);
  Alcotest.(check bool) "the handled ping send is not" false
    (has ~rule:"proto-dead-letter" ~token:"ping" o.Proto_driver.findings);
  (* The graph still records the handled flow. *)
  Alcotest.(check bool) "flow edge present" true (o.Proto_driver.edges <> [])

let test_missing_reply () =
  let o = analyze [ ("lib/demo/proto_missing_reply.ml", "proto_missing_reply.ml") ] in
  Alcotest.(check bool)
    (Printf.sprintf "fetch miss path flagged (got: %s)"
       (String.concat ", " (rules_of o.Proto_driver.active)))
    true
    (has ~rule:"proto-reply-obligation" ~token:"fetch" o.Proto_driver.active)

let test_escape_helper () =
  let o = analyze [ ("lib/demo/proto_escape_helper.ml", "proto_escape_helper.ml") ] in
  Alcotest.(check bool)
    (Printf.sprintf "laundered Bytes payload flagged (got: %s)"
       (String.concat ", " (rules_of o.Proto_driver.active)))
    true
    (has ~rule:"proto-escape" o.Proto_driver.active)

let test_clean () =
  let o = analyze [ ("lib/demo/proto_clean.ml", "proto_clean.ml") ] in
  Alcotest.(check (list string)) "zero findings" []
    (List.map Finding.to_string o.Proto_driver.findings);
  Alcotest.(check (list string)) "zero warnings" []
    (List.map Finding.to_string o.Proto_driver.warnings)

let test_function_binding () =
  let o = analyze [ ("lib/demo/proto_function_binding.ml", "proto_function_binding.ml") ] in
  let carried =
    List.concat_map
      (fun e -> Dcp_lint.Proto_extract.SSet.elements e.Dcp_lint.Proto_flow.e_msgs)
      o.Proto_driver.edges
  in
  Alcotest.(check (list string)) "names returned by a bare function reach the edge"
    [ "probe"; "report" ] carried;
  Alcotest.(check (list string)) "zero findings" []
    (List.map Finding.to_string o.Proto_driver.findings)

let test_dot_export () =
  let o = analyze [ ("lib/demo/proto_clean.ml", "proto_clean.ml") ] in
  let dot = o.Proto_driver.dot in
  Alcotest.(check bool) "starts with digraph" true
    (String.length dot > 7 && String.equal (String.sub dot 0 7) "digraph");
  let count c = String.fold_left (fun n ch -> if ch = c then n + 1 else n) 0 dot in
  Alcotest.(check int) "balanced braces" (count '{') (count '}');
  Alcotest.(check bool) "has an edge" true
    (let rec find i =
       i + 1 < String.length dot && (dot.[i] = '-' && dot.[i + 1] = '>' || find (i + 1))
     in
     find 0)

let test_report_roundtrip () =
  let o = analyze [ ("lib/demo/proto_missing_reply.ml", "proto_missing_reply.ml") ] in
  let parsed = Json.parse (Json.render o.Proto_driver.report) in
  Alcotest.(check bool) "render/parse round-trips" true (parsed = o.Proto_driver.report);
  (match Json.member "schema" parsed with
  | Some (Json.Str s) -> Alcotest.(check string) "schema" Proto_report.schema s
  | _ -> Alcotest.fail "schema member missing");
  match Json.member "summary" parsed with
  | Some summary -> (
      match Json.member "active" summary with
      | Some (Json.Num active) ->
          Alcotest.(check int) "active counted"
            (List.length o.Proto_driver.active)
            (int_of_float active)
      | _ -> Alcotest.fail "summary.active missing")
  | None -> Alcotest.fail "summary member missing"

(* The unused-export rule over one in-memory interface and its users. *)
let shapes_mli =
  String.concat "\n"
    [
      "val area : int -> int";
      "val perimeter : int -> int";
      "val scale : int -> int";
      "module Inner : sig";
      "  val depth : int";
      "end";
      "val checked : int -> bool";
      "val orphan : int";
      "";
    ]

let shapes_ml =
  "let area x = x * x\nlet perimeter x = 4 * x\nlet scale x = 2 * x\n\
   module Inner = struct let depth = 1 end\nlet checked x = x > 0\nlet orphan = area 3\n"

let exports_of users =
  let o =
    Proto_driver.analyze ~root:"."
      ~units:([ ("lib/demo/shapes.mli", shapes_mli); ("lib/demo/shapes.ml", shapes_ml) ] @ users)
      ~baseline:(Baseline.empty ())
  in
  let unused =
    List.filter (fun f -> String.equal f.Finding.rule "proto-unused-export") o.Proto_driver.findings
  in
  let count field =
    match Option.bind (Json.member "exports" o.Proto_driver.report) (Json.member field) with
    | Some (Json.Num n) -> int_of_float n
    | _ -> Alcotest.failf "exports.%s missing" field
  in
  (List.map (fun f -> f.Finding.token) unused, unused, count)

let users =
  [
    ("lib/demo/qualified.ml", "let a = Shapes.area 2\nlet d = Shapes.Inner.depth\n");
    ("bin/aliased.ml", "module S = Dcp_demo.Shapes\nlet p = S.perimeter 3\n");
    ("examples/opened.ml", "open Dcp_demo.Shapes\nlet s = scale 4\n");
    ("test/test_shapes.ml", "let c = Dcp_demo.Shapes.checked 1\n");
  ]

let test_export_uses () =
  let tokens, _, _ = exports_of users in
  Alcotest.(check (list string)) "qualified, aliased, opened and nested uses count" [ "orphan" ]
    tokens

let test_export_unused () =
  let _, unused, count = exports_of users in
  (match unused with
  | [ f ] ->
      Alcotest.(check (pair string int)) "reported at the .mli line" ("lib/demo/shapes.mli", 8)
        (f.Finding.file, f.Finding.line)
  | _ -> Alcotest.fail "expected exactly the orphan");
  Alcotest.(check (pair int int)) "declared, unused" (6, 1) (count "declared", count "unused")

let test_export_test_only () =
  let tokens, _, count = exports_of users in
  Alcotest.(check bool) "a val named only from test/ is not reported" false
    (List.mem "checked" tokens);
  Alcotest.(check int) "counted as test_only" 1 (count "test_only");
  let tokens, _, _ = exports_of (List.filter (fun (p, _) -> p <> "test/test_shapes.ml") users) in
  Alcotest.(check (list string)) "without its test user it is unused" [ "checked"; "orphan" ]
    tokens

(* Walk up from the build sandbox to the real checkout; the in-tree @lint
   alias enforces cleanliness anyway, so skip quietly when not found. *)
let find_repo_root () =
  let rec up dir depth =
    if depth > 8 then None
    else if
      Sys.file_exists (Filename.concat dir "dune-project")
      && Sys.file_exists (Filename.concat dir ".git")
      && Sys.file_exists (Filename.concat dir "proto_baseline.txt")
    then Some dir
    else
      let parent = Filename.dirname dir in
      if String.equal parent dir then None else up parent (depth + 1)
  in
  up (Sys.getcwd ()) 0

let test_tree_clean () =
  match find_repo_root () with
  | None -> ()  (* enforced by `dune build @lint` regardless *)
  | Some root ->
      let o =
        Proto_driver.run ~root ~baseline_path:(Filename.concat root "proto_baseline.txt") ()
      in
      Alcotest.(check (list string)) "no active findings (tree clean modulo baseline)" []
        (List.map Finding.to_string o.Proto_driver.active);
      Alcotest.(check (list string)) "no unbaselined warnings" []
        (List.map Finding.to_string o.Proto_driver.warnings);
      Alcotest.(check (list string)) "no stale proto baseline entries" []
        o.Proto_driver.stale_baseline;
      Alcotest.(check bool) "scanned a real number of units" true
        (o.Proto_driver.units_scanned > 50);
      Alcotest.(check bool) "flow graph is non-trivial" true
        (List.length o.Proto_driver.edges > 20)

(* Every committed artifact parses and carries its schema id; a lint
   report also shows a clean tree. *)
let committed_artifacts =
  [
    ("PROTO_report.json", "dcp.lint.proto/v1");
    ("LINT_report.json", "dcp.lint.report/v1");
    ("BENCH_micro.json", "dcp.bench.micro/v1");
    ("CHECK_sweep.json", "dcp.check.sweep/v1");
  ]

let test_committed_artifact (file, schema) () =
  match find_repo_root () with
  | None -> ()
  | Some root -> (
      let doc = Json.parse (read_file (Filename.concat root file)) in
      (match Json.member "schema" doc with
      | Some (Json.Str s) -> Alcotest.(check string) "committed schema" schema s
      | _ -> Alcotest.failf "committed %s lacks a schema" file);
      match Json.member "summary" doc with
      | None -> ()
      | Some summary -> (
          match Json.member "active" summary with
          | Some (Json.Num n) ->
              Alcotest.(check int) "committed report shows a clean tree" 0 (int_of_float n)
          | _ -> Alcotest.fail "summary.active missing"))

let tests =
  [
    Alcotest.test_case "dead-letter fixture" `Quick test_dead_letter;
    Alcotest.test_case "missing-reply fixture" `Quick test_missing_reply;
    Alcotest.test_case "escape-through-helper fixture" `Quick test_escape_helper;
    Alcotest.test_case "clean fixture" `Quick test_clean;
    Alcotest.test_case "function-binding fixture" `Quick test_function_binding;
    Alcotest.test_case "dot export" `Quick test_dot_export;
    Alcotest.test_case "proto report round-trip" `Quick test_report_roundtrip;
    Alcotest.test_case "tree clean modulo proto baseline" `Quick test_tree_clean;
    Alcotest.test_case "unused export seen through paths aliases opens" `Quick
      test_export_uses;
    Alcotest.test_case "unused export reported at its mli line" `Quick test_export_unused;
    Alcotest.test_case "unused export with test-only users" `Quick test_export_test_only;
  ]
  @ List.map
      (fun ((file, _) as artifact) ->
        Alcotest.test_case (Printf.sprintf "committed %s parses" file) `Quick
          (test_committed_artifact artifact))
      committed_artifacts
