(* The dcp_lint pass: every rule fires on its minimal bad fixture, the
   sorted sibling stays quiet, baselines and the JSON report round-trip,
   and the real tree is clean modulo the committed baseline under both
   rule families. *)

module Finding = Dcp_lint.Finding
module Layers = Dcp_lint.Layers
module Scan = Dcp_lint.Scan
module Proto_extract = Dcp_lint.Proto_extract
module Baseline = Dcp_lint.Baseline
module Report = Dcp_lint.Report
module Driver = Dcp_lint.Driver
module Json = Dcp_json.Json

let read_file path = In_channel.with_open_bin path In_channel.input_all
let read_fixture name = read_file (Filename.concat "lint_fixtures" name)

(* Scan a fixture as if it lived at [path] inside the tree, so the layer
   rules see the right context. *)
let scan_fixture ~as_path name =
  Scan.file (Proto_extract.load ~path:as_path ~source:(read_fixture name))

let rules_of findings = List.map (fun f -> f.Finding.rule) findings

let check_fires name ~as_path ~rule () =
  let findings = scan_fixture ~as_path name in
  Alcotest.(check bool)
    (Printf.sprintf "%s fires %s (got: %s)" name rule (String.concat ", " (rules_of findings)))
    true
    (List.exists (fun f -> String.equal f.Finding.rule rule) findings)

let test_guardian_isolation () =
  check_fires "bad_isolation.ml" ~as_path:"lib/airline/bad_isolation.ml"
    ~rule:"guardian-isolation" ()

let test_layer_dag () =
  check_fires "bad_layer.ml" ~as_path:"lib/wire/bad_layer.ml" ~rule:"layer-dag" ();
  (* The same reference from bin/ is fine: executables sit above every layer. *)
  let findings = scan_fixture ~as_path:"bin/bad_layer.ml" "bad_layer.ml" in
  Alcotest.(check (list string)) "bin may reference any layer" [] (rules_of findings)

let test_wall_clock () =
  let findings = scan_fixture ~as_path:"lib/check/bad_wall_clock.ml" "bad_wall_clock.ml" in
  let wall = List.filter (fun f -> String.equal f.Finding.rule "wall-clock") findings in
  Alcotest.(check int) "gettimeofday and self_init both fire" 2 (List.length wall)

let test_wall_clock_alias () =
  let findings =
    scan_fixture ~as_path:"lib/check/bad_wall_clock_alias.ml" "bad_wall_clock_alias.ml"
  in
  let wall = List.filter (fun f -> String.equal f.Finding.rule "wall-clock") findings in
  Alcotest.(check int) "aliased, alias-of-alias and let-module calls all fire" 3
    (List.length wall)

let test_hashtbl_order () =
  let findings = scan_fixture ~as_path:"lib/core/bad_hashtbl_order.ml" "bad_hashtbl_order.ml" in
  let hits = List.filter (fun f -> String.equal f.Finding.rule "hashtbl-order") findings in
  Alcotest.(check int) "unsorted fold fires, sorted fold does not" 1 (List.length hits);
  let hit = List.hd hits in
  Alcotest.(check string) "context is the enclosing binding" "dump" hit.Finding.context;
  Alcotest.(check string) "token is the callee" "Hashtbl.fold" hit.Finding.token

let test_poly_compare () =
  let findings = scan_fixture ~as_path:"lib/core/bad_poly_compare.ml" "bad_poly_compare.ml" in
  let hits = List.filter (fun f -> String.equal f.Finding.rule "poly-compare") findings in
  Alcotest.(check int) "port-name = and Hashtbl.hash both fire" 2 (List.length hits)

let test_obj_magic () =
  check_fires "bad_obj_magic.ml" ~as_path:"lib/wire/bad_obj_magic.ml" ~rule:"obj-magic" ()

let test_domain_primitives () =
  let findings =
    scan_fixture ~as_path:"lib/core/bad_domain_primitives.ml" "bad_domain_primitives.ml"
  in
  let hits = List.filter (fun f -> String.equal f.Finding.rule "domain-primitives") findings in
  Alcotest.(check bool)
    (Printf.sprintf "Mutex/Atomic/Domain/Condition all fire (got %d)" (List.length hits))
    true
    (List.length hits >= 4);
  (* The shard runtime itself is the one sanctioned home for these. *)
  let exempt = scan_fixture ~as_path:"lib/sim/exec.ml" "bad_domain_primitives.ml" in
  Alcotest.(check (list string))
    "lib/sim/exec.ml is exempt" []
    (rules_of (List.filter (fun f -> String.equal f.Finding.rule "domain-primitives") exempt))

let test_disk_faults () =
  let findings = scan_fixture ~as_path:"lib/check/bad_disk_faults.ml" "bad_disk_faults.ml" in
  let hits = List.filter (fun f -> String.equal f.Finding.rule "disk-faults") findings in
  Alcotest.(check int) "bare and qualified Disk.create both fire" 2 (List.length hits);
  (* The stable layer itself is the one sanctioned home for injector
     construction. *)
  let exempt = scan_fixture ~as_path:"lib/stable/store.ml" "bad_disk_faults.ml" in
  Alcotest.(check (list string))
    "lib/stable is exempt" []
    (rules_of (List.filter (fun f -> String.equal f.Finding.rule "disk-faults") exempt))

let test_global_state () =
  let findings = scan_fixture ~as_path:"lib/core/bad_global_state.ml" "bad_global_state.ml" in
  let hits = List.filter (fun f -> String.equal f.Finding.rule "global-state") findings in
  Alcotest.(check (list (pair string string)))
    "counter, closure counter, nested-module table and boxed queue fire; per-call, \
     temporary and program-body allocations do not"
    [ ("next_id", "ref"); ("fresh", "ref"); ("Cache.table", "Hashtbl.create"); ("pending", "Queue.create") ]
    (List.map (fun f -> (f.Finding.context, f.Finding.token)) hits);
  Alcotest.(check bool) "--explain documents it" true (Option.is_some (Finding.explain "global-state"))

let test_mutable_payload () =
  let findings =
    scan_fixture ~as_path:"lib/office/bad_mutable_payload.ml" "bad_mutable_payload.ml"
  in
  let hits = List.filter (fun f -> String.equal f.Finding.rule "mutable-payload") findings in
  Alcotest.(check int) "array into send and ref into reply both fire" 2 (List.length hits)

let test_parse_error () =
  check_fires "bad_parse.ml" ~as_path:"lib/wire/bad_parse.ml" ~rule:"parse-error" ();
  (* The finding sits where the parser stopped, not at line 0. *)
  match scan_fixture ~as_path:"lib/wire/bad_parse.ml" "bad_parse.ml" with
  | [ f ] ->
      Alcotest.(check bool)
        (Printf.sprintf "on a line of the file (got %d:%d)" f.Finding.line f.Finding.col)
        true
        (f.Finding.line >= 1 && f.Finding.col >= 0)
  | findings -> Alcotest.failf "expected one finding, got %d" (List.length findings)

(* A lexer error reads as what the lexer rejected, not as the raw
   [Lexer.Error] exception. *)
let test_lex_error () =
  match scan_fixture ~as_path:"lib/wire/bad_lex.ml" "bad_lex.ml" with
  | [ f ] ->
      Alcotest.(check string) "rule" "parse-error" f.Finding.rule;
      Alcotest.(check string) "the lexer's message" "could not parse: String literal not terminated"
        f.Finding.message;
      Alcotest.(check bool)
        (Printf.sprintf "on a line of the file (got %d:%d)" f.Finding.line f.Finding.col)
        true
        (f.Finding.line >= 1 && f.Finding.col >= 0)
  | findings -> Alcotest.failf "expected one finding, got %d" (List.length findings)

let test_missing_mli () =
  let root = Filename.temp_file "dcp_lint_tree" "" in
  Sys.remove root;
  Sys.mkdir root 0o755;
  Sys.mkdir (Filename.concat root "lib") 0o755;
  let dir = Filename.concat (Filename.concat root "lib") "wire" in
  Sys.mkdir dir 0o755;
  let write name contents =
    let oc = open_out (Filename.concat dir name) in
    output_string oc contents;
    close_out oc
  in
  write "bare.ml" "let x = 1\n";
  write "sealed.ml" "let x = 1\n";
  write "sealed.mli" "val x : int\n";
  let srcs = Dcp_lint.Discover.ml_files ~root ~dirs:[ "lib" ] in
  let findings = Dcp_lint.Discover.missing_mli ~root srcs in
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir;
  Sys.rmdir (Filename.concat root "lib");
  Sys.rmdir root;
  Alcotest.(check (list string)) "only the interface-less module is flagged"
    [ "mli-missing" ] (rules_of findings);
  Alcotest.(check string) "names the file" "lib/wire/bare.ml" (List.hd findings).Finding.file

let test_layers_ranks () =
  Alcotest.(check (option int)) "wire rank" (Some 1) (Layers.rank_of_dir "wire");
  Alcotest.(check (option int)) "bank is a guardian layer" (Some 6) (Layers.rank_of_dir "bank");
  Alcotest.(check bool) "bank is a guardian" true (Layers.is_guardian "bank");
  Alcotest.(check bool) "core is not" false (Layers.is_guardian "core");
  Alcotest.(check (option string)) "lib name mapping" (Some "bank")
    (Layers.dir_of_lib_name "dcp_bank");
  Alcotest.(check (option int)) "module rank" (Some 4) (Layers.rank_of_module "Dcp_core");
  Alcotest.(check (option int)) "external module" None (Layers.rank_of_module "Fmt")

let test_graph_findings () =
  (* A fabricated guardian->guardian dune edge must be flagged. *)
  let bad =
    { Layers.dir = "bank"; lib_name = "dcp_bank"; deps = [ "dcp_airline" ]; rank = 6 }
  in
  let findings = Layers.graph_findings [ bad ] in
  Alcotest.(check bool) "guardian edge flagged" true
    (List.exists (fun f -> String.equal f.Finding.rule "guardian-isolation") findings);
  (* The real tree's dune graph is clean. *)
  let clean =
    { Layers.dir = "net"; lib_name = "dcp_net"; deps = [ "dcp_rng"; "dcp_sim" ]; rank = 2 }
  in
  Alcotest.(check int) "downward edges are fine" 0 (List.length (Layers.graph_findings [ clean ]))

let test_baseline_roundtrip () =
  let findings = scan_fixture ~as_path:"lib/core/bad_hashtbl_order.ml" "bad_hashtbl_order.ml" in
  Alcotest.(check bool) "fixture yields findings" true (findings <> []);
  let path = Filename.temp_file "dcp_lint_baseline" ".txt" in
  Baseline.save ~path findings;
  let b = Baseline.load ~path in
  Baseline.apply b findings;
  Sys.remove path;
  Alcotest.(check bool) "all findings baselined after round-trip" true
    (List.for_all (fun f -> f.Finding.baselined) findings);
  Alcotest.(check (list string)) "nothing stale" [] (Baseline.stale b);
  let empty = Baseline.empty () in
  List.iter (fun f -> f.Finding.baselined <- false) findings;
  Baseline.apply empty findings;
  Alcotest.(check bool) "empty baseline marks nothing" true
    (List.for_all (fun f -> not f.Finding.baselined) findings)

let test_baseline_stale () =
  let path = Filename.temp_file "dcp_lint_baseline" ".txt" in
  let oc = open_out path in
  output_string oc "# comment\nhashtbl-order lib/gone.ml f/Hashtbl.fold\n";
  close_out oc;
  let b = Baseline.load ~path in
  Baseline.apply b [];
  Sys.remove path;
  Alcotest.(check (list string)) "unmatched entry reported stale"
    [ "hashtbl-order lib/gone.ml f/Hashtbl.fold" ] (Baseline.stale b)

let test_baseline_keeps_notes () =
  let path = Filename.temp_file "dcp_lint_baseline" ".txt" in
  let notes = [ "# dcp_lint baseline"; "#"; "# Reviewed: the f/Hashtbl.fold sum commutes." ] in
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun l -> output_string oc (l ^ "\n"))
        (notes @ [ "hashtbl-order lib/gone.ml f/Hashtbl.fold" ]));
  let findings = scan_fixture ~as_path:"lib/core/bad_hashtbl_order.ml" "bad_hashtbl_order.ml" in
  let keys = List.sort_uniq String.compare (List.map Finding.key findings) in
  Baseline.save ~path findings;
  let saved = read_file path in
  Sys.remove path;
  Alcotest.(check (list string)) "notes kept, stale key pruned, new keys added"
    (notes @ keys @ [ "" ])
    (String.split_on_char '\n' saved);
  Baseline.save ~path findings;
  let fresh = read_file path in
  Sys.remove path;
  Alcotest.(check bool) "a new file gets the default header" true
    (String.starts_with ~prefix:"# dcp_lint baseline: " fresh)

(* Both rule families land in one report: a per-file finding and a
   whole-program finding, from fixtures analyzed as one program. *)
let test_report_roundtrip () =
  let layers =
    [ { Layers.dir = "wire"; lib_name = "dcp_wire"; deps = [ "dcp_rng" ]; rank = 1 } ]
  in
  let o =
    Driver.analyze ~root:"." ~layers ~missing_mli:[]
      ~units:
        [
          ("lib/core/bad_hashtbl_order.ml", read_fixture "bad_hashtbl_order.ml");
          ("lib/demo/proto_missing_reply.ml", read_fixture "proto_missing_reply.ml");
        ]
      ~baseline:(Baseline.empty ())
  in
  Alcotest.(check (list string)) "both rule families reported"
    [ "hashtbl-order"; "proto-reply-obligation" ]
    (List.sort_uniq String.compare (rules_of o.Driver.findings));
  let report = o.Driver.report in
  let parsed = Json.parse (Json.render report) in
  Alcotest.(check bool) "render/parse round-trips" true (parsed = report);
  (match Json.member "schema" parsed with
  | Some (Json.Str s) -> Alcotest.(check string) "schema" Report.schema s
  | _ -> Alcotest.fail "schema member missing");
  match Json.member "summary" parsed with
  | Some summary -> (
      match (Json.member "total" summary, Json.member "active" summary) with
      | Some (Json.Num total), Some (Json.Num active) ->
          let findings = o.Driver.findings in
          Alcotest.(check int) "total counts findings" (List.length findings)
            (int_of_float total);
          Alcotest.(check int) "all active (no baseline applied)" (List.length findings)
            (int_of_float active);
          Alcotest.(check int) "active counted" (List.length o.Driver.active)
            (int_of_float active)
      | _ -> Alcotest.fail "summary counts missing")
  | None -> Alcotest.fail "summary member missing"

(* Walk up from the build sandbox to the real checkout; the in-tree @lint
   alias enforces cleanliness anyway, so skip quietly when not found. *)
let find_repo_root () =
  let rec up dir depth =
    if depth > 8 then None
    else if
      Sys.file_exists (Filename.concat dir "dune-project")
      && Sys.file_exists (Filename.concat dir ".git")
      && Sys.file_exists (Filename.concat dir "lint_baseline.txt")
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
      let o = Driver.run ~root ~baseline_path:(Filename.concat root "lint_baseline.txt") in
      Alcotest.(check (list string)) "no active findings (tree clean modulo baseline)" []
        (List.map Finding.to_string o.Driver.active);
      Alcotest.(check (list string)) "no unbaselined warnings" []
        (List.map Finding.to_string o.Driver.warnings);
      Alcotest.(check (list string)) "no stale baseline entries" [] o.Driver.stale_baseline;
      Alcotest.(check bool) "scanned a real number of files" true (o.Driver.files_scanned > 50);
      Alcotest.(check bool) "flow graph is non-trivial" true (List.length o.Driver.edges > 20)

let summary_count report name =
  match Option.bind (Json.member "summary" report) (Json.member name) with
  | Some (Json.Num n) -> int_of_float n
  | _ -> Alcotest.failf "summary.%s missing" name

(* A typed command names its command where it is made: its sends, its
   declaration and its handler all carry that name, and no send of it is
   dynamic. *)
let typed_unit =
  {|
let ping = Command.make "ping" Command.(args1 int) ~replies:[ Vtype.reply "pong" [ Vtype.Tint ] ]
let port_type = Command.port_type (Command.decl [ Command.Cmd ping ])
let poke ctx ~to_ = Runtime.send_command ctx ~to_ ping 1
let serve ctx =
  let handlers =
    [
      Message.handle ping (fun msg n ->
          match msg.Message.reply_to with
          | Some reply -> Runtime.send ctx ~to_:reply "pong" [ Value.int n ]
          | None -> ());
      Message.handle Command.failure (fun _ _ -> ());
    ]
  in
  ignore handlers
|}

let test_typed_commands () =
  let o =
    Driver.analyze ~root:"." ~layers:[] ~missing_mli:[]
      ~units:[ ("lib/demo/typed.ml", typed_unit) ]
      ~baseline:(Baseline.empty ())
  in
  let unit_of report =
    match Json.member "units" report with
    | Some (Json.Arr [ u ]) -> u
    | _ -> Alcotest.fail "one unit expected"
  in
  let u = unit_of o.Driver.report in
  let strings = function
    | Some (Json.Arr items) ->
        List.map (function Json.Str s -> s | _ -> Alcotest.fail "not a string") items
    | _ -> Alcotest.fail "not an array"
  in
  let field name obj =
    match Json.member name obj with Some (Json.Str s) -> s | _ -> Alcotest.failf "%s" name
  in
  (match Json.member "sends" u with
  | Some (Json.Arr sends) ->
      Alcotest.(check (list (pair string (list string))))
        "each typed send names its command"
        [ ("Runtime.send_command", [ "ping" ]); ("Runtime.send", [ "pong" ]) ]
        (List.map (fun sd -> (field "via" sd, strings (Json.member "names" sd))) sends)
  | _ -> Alcotest.fail "sends missing");
  (match Json.member "handles" u with
  | Some (Json.Arr handles) ->
      Alcotest.(check (list (pair string string)))
        "declared where made, dispatched where handled"
        [
          ("ping", "declared");
          ("pong", "reply-declared");
          ("ping", "dispatch");
          ("failure", "dispatch");
        ]
        (List.map (fun h -> (field "name" h, field "kind" h)) handles)
  | _ -> Alcotest.fail "handles missing");
  Alcotest.(check int) "no dynamic send" 0 (summary_count o.Driver.report "dynamic_sends")

(* The analyzer's blind spots: send sites whose command name it cannot
   resolve.  The count may fall as senders gain typed commands; a rise
   means a send the proto tier cannot check. *)
let dynamic_sends_at_most = 22

(* Exports that only units under test/ name: each stays as paper API or
   as inspection API, and its interface says which.  The count may fall
   as such vals gain callers or go; a rise means a val nothing outside
   test/ uses. *)
let test_only_exports_at_most = 105

let test_dynamic_sends_only_fall () =
  match find_repo_root () with
  | None -> ()
  | Some root ->
      let o = Driver.run ~root ~baseline_path:(Filename.concat root "lint_baseline.txt") in
      let dynamic = summary_count o.Driver.report "dynamic_sends" in
      Alcotest.(check bool)
        (Printf.sprintf "%d dynamic sends, at most %d" dynamic dynamic_sends_at_most)
        true
        (dynamic <= dynamic_sends_at_most);
      let test_only =
        match Option.bind (Json.member "exports" o.Driver.report) (Json.member "test_only") with
        | Some (Json.Num n) -> int_of_float n
        | _ -> Alcotest.fail "exports.test_only missing"
      in
      Alcotest.(check bool)
        (Printf.sprintf "%d test-only exports, at most %d" test_only test_only_exports_at_most)
        true
        (test_only <= test_only_exports_at_most)

let tests =
  [
    Alcotest.test_case "guardian isolation fixture" `Quick test_guardian_isolation;
    Alcotest.test_case "layer dag fixture" `Quick test_layer_dag;
    Alcotest.test_case "wall clock fixture" `Quick test_wall_clock;
    Alcotest.test_case "wall clock through module alias" `Quick test_wall_clock_alias;
    Alcotest.test_case "hashtbl order fixture" `Quick test_hashtbl_order;
    Alcotest.test_case "poly compare fixture" `Quick test_poly_compare;
    Alcotest.test_case "obj magic fixture" `Quick test_obj_magic;
    Alcotest.test_case "domain primitives fixture" `Quick test_domain_primitives;
    Alcotest.test_case "disk faults fixture" `Quick test_disk_faults;
    Alcotest.test_case "mutable payload fixture" `Quick test_mutable_payload;
    Alcotest.test_case "global state fixture" `Quick test_global_state;
    Alcotest.test_case "parse error fixture" `Quick test_parse_error;
    Alcotest.test_case "lexer error fixture" `Quick test_lex_error;
    Alcotest.test_case "missing mli" `Quick test_missing_mli;
    Alcotest.test_case "layer ranks" `Quick test_layers_ranks;
    Alcotest.test_case "dune graph rules" `Quick test_graph_findings;
    Alcotest.test_case "baseline round-trip" `Quick test_baseline_roundtrip;
    Alcotest.test_case "baseline staleness" `Quick test_baseline_stale;
    Alcotest.test_case "baseline update keeps review notes" `Quick test_baseline_keeps_notes;
    Alcotest.test_case "report json round-trip" `Quick test_report_roundtrip;
    Alcotest.test_case "tree clean modulo baseline" `Quick test_tree_clean;
    Alcotest.test_case "typed commands are declared, sent and handled" `Quick
      test_typed_commands;
    Alcotest.test_case "dynamic sends can only fall" `Quick test_dynamic_sends_only_fall;
  ]
