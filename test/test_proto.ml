(* The whole-program rules: each fixture trips exactly its rule, the
   clean fixture is silent, a flow edge needs a consumer, the
   unused-export rule sees every way a unit can name a val, and every
   committed JSON artifact parses with its schema id.  The report
   round-trip and the clean-tree check cover both rule families in
   [Test_lint]. *)

module Finding = Dcp_lint.Finding
module Baseline = Dcp_lint.Baseline
module Driver = Dcp_lint.Driver
module Json = Dcp_json.Json

let read_fixture = Test_lint.read_fixture

let analyze_sources units =
  Driver.analyze ~root:"." ~layers:[] ~missing_mli:[] ~units ~baseline:(Baseline.empty ())

(* Analyze a fixture set as one whole program rooted at fabricated lib
   paths. *)
let analyze names =
  analyze_sources (List.map (fun (path, fixture) -> (path, read_fixture fixture)) names)

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
       (String.concat ", " (rules_of o.Driver.active)))
    true
    (has ~rule:"proto-dead-letter" ~token:"peer_vanished" o.Driver.active);
  Alcotest.(check bool) "the handled ping send is not" false
    (has ~rule:"proto-dead-letter" ~token:"ping" o.Driver.findings);
  (* The graph still records the handled flow. *)
  Alcotest.(check bool) "flow edge present" true (o.Driver.edges <> [])

let test_missing_reply () =
  let o = analyze [ ("lib/demo/proto_missing_reply.ml", "proto_missing_reply.ml") ] in
  Alcotest.(check bool)
    (Printf.sprintf "fetch miss path flagged (got: %s)"
       (String.concat ", " (rules_of o.Driver.active)))
    true
    (has ~rule:"proto-reply-obligation" ~token:"fetch" o.Driver.active)

let test_escape_helper () =
  let o = analyze [ ("lib/demo/proto_escape_helper.ml", "proto_escape_helper.ml") ] in
  Alcotest.(check bool)
    (Printf.sprintf "laundered Bytes payload flagged (got: %s)"
       (String.concat ", " (rules_of o.Driver.active)))
    true
    (has ~rule:"proto-escape" o.Driver.active)

let test_clean () =
  let o = analyze [ ("lib/demo/proto_clean.ml", "proto_clean.ml") ] in
  Alcotest.(check (list string)) "zero findings" []
    (List.map Finding.to_string o.Driver.findings);
  Alcotest.(check (list string)) "zero warnings" []
    (List.map Finding.to_string o.Driver.warnings)

let test_function_binding () =
  let o = analyze [ ("lib/demo/proto_function_binding.ml", "proto_function_binding.ml") ] in
  let carried =
    List.concat_map
      (fun e -> Dcp_lint.Proto_extract.SSet.elements e.Dcp_lint.Proto_flow.e_msgs)
      o.Driver.edges
  in
  Alcotest.(check (list string)) "names returned by a bare function reach the edge"
    [ "probe"; "report" ] carried;
  Alcotest.(check (list string)) "zero findings" []
    (List.map Finding.to_string o.Driver.findings)

let test_dot_export () =
  let o = analyze [ ("lib/demo/proto_clean.ml", "proto_clean.ml") ] in
  let dot = o.Driver.dot in
  Alcotest.(check bool) "starts with digraph" true
    (String.length dot > 7 && String.equal (String.sub dot 0 7) "digraph");
  let count c = String.fold_left (fun n ch -> if ch = c then n + 1 else n) 0 dot in
  Alcotest.(check int) "balanced braces" (count '{') (count '}');
  Alcotest.(check bool) "has an edge" true
    (let rec find i =
       i + 1 < String.length dot && (dot.[i] = '-' && dot.[i + 1] = '>' || find (i + 1))
     in
     find 0)

(* A declared reply name is produced by its unit, not consumed: a send of
   the same name from an unrelated unit is no flow into it. *)
let test_reply_declared_no_edge () =
  let o =
    analyze_sources
      [
        ("lib/demo/proto_reply_declared.ml", read_fixture "proto_reply_declared.ml");
        ("lib/demo/stranger.ml", "let greet ctx peer = Runtime.send ctx ~to_:peer \"ok\" []\n");
      ]
  in
  Alcotest.(check (list (triple string string (list string))))
    "only the request flows into the declaring unit"
    [ ("demo/proto_reply_declared", "demo/proto_reply_declared", [ "lookup" ]) ]
    (List.map
       (fun (e : Dcp_lint.Proto_flow.edge) ->
         (e.e_src, e.e_dst, Dcp_lint.Proto_extract.SSet.elements e.e_msgs))
       o.Driver.edges)

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
    analyze_sources
      ([ ("lib/demo/shapes.mli", shapes_mli); ("lib/demo/shapes.ml", shapes_ml) ] @ users)
  in
  let unused =
    List.filter (fun f -> String.equal f.Finding.rule "proto-unused-export") o.Driver.findings
  in
  let count field =
    match Option.bind (Json.member "exports" o.Driver.report) (Json.member field) with
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

(* Every committed artifact parses and carries its schema id; a lint
   report also shows a clean tree. *)
let committed_artifacts =
  [
    ("LINT_report.json", "dcp.lint.report/v2");
    ("BENCH_micro.json", "dcp.bench.micro/v1");
    ("CHECK_sweep.json", "dcp.check.sweep/v1");
  ]

let test_committed_artifact (file, schema) () =
  match Test_lint.find_repo_root () with
  | None -> ()
  | Some root -> (
      let doc = Json.parse (Test_lint.read_file (Filename.concat root file)) in
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
    Alcotest.test_case "declared reply is no flow target" `Quick test_reply_declared_no_edge;
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
