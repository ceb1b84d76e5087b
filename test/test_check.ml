(* Self-tests for the checking harness itself.  The load-bearing one is the
   mutation test: a scenario whose reference model deliberately ignores one
   transfer MUST be flagged by the oracles and shrunk to a small
   counterexample — a harness that stays green on a known-broken model is
   worse than no harness at all. *)

module Check = Dcp_check
module Clock = Dcp_sim.Clock

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = affix || at (i + 1)) in
  n = 0 || at 0

let profile name =
  match Check.Profile.find name with
  | Some p -> p
  | None -> Alcotest.failf "unknown profile %s" name

(* A calm profile keeps these tests fast; the mutation is detectable in any
   execution where at least one transfer commits. *)
let calm = profile "lan"

let test_mutation_detected () =
  let outcome = Check.Scenario.execute Check.Scenarios.bank_mutated ~seed:1 ~profile:calm () in
  match Check.Scenario.fail_reason outcome with
  | None -> Alcotest.fail "mutated bank model passed the oracles: the checker is blind"
  | Some reason ->
      Alcotest.(check bool)
        "failure implicates the model oracle" true
        (contains ~affix:"model" reason || contains ~affix:"balance" reason)

let test_honest_twin_passes () =
  (* Same seed, same profile, honest model: the failure above is the
     mutation's doing, not scenario noise. *)
  let outcome = Check.Scenario.execute Check.Scenarios.bank ~seed:1 ~profile:calm () in
  match Check.Scenario.fail_reason outcome with
  | None -> ()
  | Some reason -> Alcotest.failf "honest bank scenario failed: %s" reason

let test_mutation_shrinks () =
  match Check.Shrink.run Check.Scenarios.bank_mutated ~seed:1 ~profile:calm ~budget:40 () with
  | Error e -> Alcotest.failf "nothing to shrink: %s" e
  | Ok cx ->
      Alcotest.(check bool) "some shrink step accepted" true (cx.Check.Shrink.accepted > 0);
      Alcotest.(check bool) "workload minimised" true (cx.Check.Shrink.workload <= 2);
      Alcotest.(check bool) "trials within budget" true (cx.Check.Shrink.trials <= 40);
      (* The minimal point must itself replay to a failure — a shrinker
         that reports a passing configuration is lying. *)
      let replay =
        Check.Scenario.execute Check.Scenarios.bank_mutated ~seed:cx.Check.Shrink.seed
          ~profile:(profile cx.Check.Shrink.profile)
          ~horizon:cx.Check.Shrink.horizon ~workload:cx.Check.Shrink.workload
          ~intensity:cx.Check.Shrink.intensity ()
      in
      (match Check.Scenario.fail_reason replay with
      | Some _ -> ()
      | None -> Alcotest.fail "shrunk counterexample does not reproduce");
      let hint = Check.Shrink.replay_hint cx in
      Alcotest.(check bool)
        "replay hint names the scenario" true
        (contains ~affix:"bank_mutated" hint)

let test_sweep_deterministic_failures () =
  (* A sweep with a non-empty failure set must report the identical
     (profile, seed, reason) list on a second run. *)
  let sweep () =
    Check.Sweep.run Check.Scenarios.bank_mutated ~profiles:[ calm ] ~seed_base:1 ~seeds:5
  in
  let a = sweep () and b = sweep () in
  Alcotest.(check bool) "failures found" true (a.Check.Sweep.failures <> []);
  let strip t =
    List.map
      (fun f -> (f.Check.Sweep.profile, f.Check.Sweep.seed, f.Check.Sweep.reason))
      t.Check.Sweep.failures
  in
  Alcotest.(check (list (triple string int string))) "identical failure sets" (strip a) (strip b)

let test_outcome_fingerprint_deterministic () =
  let run () = Check.Scenario.execute Check.Scenarios.bank ~seed:42 ~profile:(profile "wan+crash") () in
  let a = run () and b = run () in
  Alcotest.(check string) "fingerprints agree" a.Check.Scenario.fingerprint b.Check.Scenario.fingerprint;
  Alcotest.(check bool) "verdicts agree"
    true
    (Check.Scenario.fail_reason a = Check.Scenario.fail_reason b)

let test_replica_fingerprint_deterministic () =
  (* The 100-replica scenario at a reduced horizon/workload: identical
     params must yield bit-identical fingerprints (the sweep determinism
     surface for the new scenario). *)
  let run () =
    Check.Scenario.execute Check.Scenarios.replica ~seed:9 ~profile:(profile "wan+lossy+crash")
      ~horizon:(Clock.s 2) ~workload:40 ()
  in
  let a = run () and b = run () in
  Alcotest.(check string) "fingerprints agree" a.Check.Scenario.fingerprint
    b.Check.Scenario.fingerprint;
  (match Check.Scenario.fail_reason a with
  | None -> ()
  | Some reason -> Alcotest.failf "replica scenario failed: %s" reason);
  Alcotest.(check bool) "convergence was measured" true
    (Check.Scenario.stat a "convergence_ms" >= 0)

(* Regression: at seed 10 the driver's 150 paced writes outlast the 8 s
   horizon and the 5 s settle.  The probe used to stop the run as soon as
   the tables agreed, after the 109th write; it now waits for the last. *)
let test_replica_run_outlasts_its_driver () =
  let outcome =
    Check.Scenario.execute Check.Scenarios.replica ~seed:10 ~profile:(profile "wan+lossy+crash") ()
  in
  (match Check.Scenario.fail_reason outcome with
  | None -> ()
  | Some reason -> Alcotest.failf "replica scenario failed: %s" reason);
  let stat = Check.Scenario.stat outcome in
  Alcotest.(check int) "every write issued" 150 (stat "issued");
  Alcotest.(check bool) "every acknowledged write held" true (stat "keys" >= stat "written")

(* Every failing oracle is reported, so a run that breaks two invariants
   says so; one failure reads exactly as it always has. *)
let test_check_all_reports_every_failure () =
  let world =
    Dcp_core.Runtime.create_world ~seed:1
      ~topology:(Dcp_net.Topology.full_mesh ~n:1 Dcp_net.Link.perfect)
      ()
  in
  let oracle name result = { Check.Oracle.name; check = (fun _ -> result) } in
  let verdict = Alcotest.(result unit string) in
  Alcotest.check verdict "both failures, in list order" (Error "a: first; c: third")
    (Check.Oracle.check_all
       [ oracle "a" (Error "first"); oracle "b" (Ok ()); oracle "c" (Error "third") ]
       world);
  Alcotest.check verdict "one failure" (Error "c: third")
    (Check.Oracle.check_all [ oracle "b" (Ok ()); oracle "c" (Error "third") ] world);
  Alcotest.check verdict "no failure" (Ok ()) (Check.Oracle.check_all [ oracle "b" (Ok ()) ] world)

(* The convergence verdict as it was computed when every table was
   parsed before the first comparison: the reference for the oracle, which
   now parses each table only when the comparison reaches it. *)
let reference_verdict tables =
  let module Reconcile = Dcp_primitives.Reconcile in
  match tables with
  | [] | [ _ ] -> Ok ()
  | reference :: rest ->
      let entry_to_string (key, stamp) =
        Printf.sprintf "%s@%s" key (Reconcile.stamp_to_string stamp)
      in
      let entry_equal (k1, s1) (k2, s2) =
        String.equal k1 k2 && Reconcile.stamp_compare s1 s2 = 0
      in
      let rec first_difference a b =
        match (a, b) with
        | [], [] -> "none"
        | e :: _, [] -> Printf.sprintf "%s missing" (entry_to_string e)
        | [], e :: _ -> Printf.sprintf "%s extra" (entry_to_string e)
        | e1 :: r1, e2 :: r2 ->
            if entry_equal e1 e2 then first_difference r1 r2
            else Printf.sprintf "%s vs %s" (entry_to_string e1) (entry_to_string e2)
      in
      let rec first_divergence i = function
        | [] -> Ok ()
        | table :: rest ->
            if List.equal entry_equal reference table then first_divergence (i + 1) rest
            else
              Error
                (Printf.sprintf "replica %d diverges from replica 0 (%d vs %d keys; first: %s)" i
                   (List.length table) (List.length reference)
                   (first_difference reference table))
      in
      first_divergence 1 rest

(* Diverged replica tables, written straight into the mirrors: the
   verdict text is the one the parse-everything oracle gave. *)
let test_replica_verdict_text () =
  let module Runtime = Dcp_core.Runtime in
  let module Replica = Dcp_primitives.Replica in
  let module Store = Dcp_stable.Store in
  let cases =
    [
      ("converged", [ [ ("a", "1.1") ]; [ ("a", "1.1") ]; [ ("a", "1.1") ]; [ ("a", "1.1") ] ]);
      ("a missing key", [ [ ("a", "1.1"); ("b", "2.1") ]; [ ("a", "1.1") ]; []; [] ]);
      ("an extra key", [ [ ("a", "1.1") ]; [ ("a", "1.1") ]; [ ("a", "1.1"); ("c", "1.2") ]; [] ]);
      ("another stamp", [ [ ("a", "1.1") ]; [ ("a", "1.1") ]; [ ("a", "1.1") ]; [ ("a", "3.2") ] ]);
      ("an empty reference", [ []; [ ("z", "9.0") ]; [ ("z", "9.0") ]; [] ]);
    ]
  in
  List.iter
    (fun (label, tables) ->
      let world =
        Runtime.create_world ~seed:3
          ~topology:(Dcp_net.Topology.full_mesh ~n:4 Dcp_net.Link.perfect)
          ()
      in
      ignore (Replica.create_group world ~nodes:[ 0; 1; 2; 3 ] ~sync_every:(Clock.s 1000) ());
      Runtime.run_for world (Clock.s 1);
      let stores =
        List.map Runtime.guardian_store (Runtime.find_guardians world ~def_name:Replica.def_name)
      in
      List.iter2
        (fun store table ->
          List.iter (fun (key, stamp) -> Store.set store ~key:("r:" ^ key) stamp) table)
        stores tables;
      Alcotest.(check (result unit string))
        label
        (reference_verdict (List.map Replica.table_in_store stores))
        (Check.Oracle.replica_convergence.Check.Oracle.check world))
    cases

(* [Sweep.write_json] merges: sweeps with other scenarios or profile lists
   survive in their order, a rerun replaces its own entry in place, and a
   file of another kind is refused untouched. *)
let test_sweep_json_merges () =
  let sweep scenario profiles wall_s =
    {
      Check.Sweep.scenario;
      profiles;
      seed_base = 1;
      seeds = 2;
      runs = 2 * List.length profiles;
      failures = [];
      wall_s;
    }
  in
  let path = Filename.temp_file "sweep" ".json" in
  Sys.remove path;
  let entries () =
    let json = Dcp_json.Json.parse (In_channel.with_open_bin path In_channel.input_all) in
    match Dcp_json.Json.member "sweeps" json with
    | Some (Dcp_json.Json.Arr sweeps) ->
        List.map
          (fun e ->
            match (Dcp_json.Json.member "scenario" e, Dcp_json.Json.member "wall_s" e) with
            | Some (Str s), Some (Num w) -> (s, w)
            | _ -> Alcotest.fail "malformed entry")
          sweeps
    | _ -> Alcotest.fail "no sweeps"
  in
  let write sweeps =
    match Check.Sweep.write_json ~path sweeps with
    | Ok () -> ()
    | Error e -> Alcotest.fail e
  in
  write [ sweep "bank" [ "lan+crash"; "wan+crash" ] 1.0 ];
  write [ sweep "itinerary" [ "lan+crash" ] 2.0; sweep "bank" [ "lan+crash+disk" ] 3.0 ];
  Alcotest.(check (list (pair string (float 0.)))) "both writes survive"
    [ ("bank", 1.0); ("itinerary", 2.0); ("bank", 3.0) ]
    (entries ());
  write [ sweep "bank" [ "lan+crash"; "wan+crash" ] 4.0 ];
  Alcotest.(check (list (pair string (float 0.)))) "a rerun replaces its entry in place"
    [ ("bank", 4.0); ("itinerary", 2.0); ("bank", 3.0) ]
    (entries ());
  Out_channel.with_open_bin path (fun oc -> output_string oc "{\"schema\": \"other\"}\n");
  (match Check.Sweep.write_json ~path [ sweep "bank" [ "lan" ] 5.0 ] with
  | Ok () -> Alcotest.fail "another kind of file was overwritten"
  | Error _ -> ());
  Alcotest.(check string) "the refused file is untouched" "{\"schema\": \"other\"}\n"
    (In_channel.with_open_bin path In_channel.input_all);
  Sys.remove path

let tests =
  [
    Alcotest.test_case "mutated model is detected" `Quick test_mutation_detected;
    Alcotest.test_case "honest twin passes" `Quick test_honest_twin_passes;
    Alcotest.test_case "mutation shrinks to a minimal counterexample" `Slow test_mutation_shrinks;
    Alcotest.test_case "failing sweep is deterministic" `Slow test_sweep_deterministic_failures;
    Alcotest.test_case "sweep json merges, refuses other files" `Quick test_sweep_json_merges;
    Alcotest.test_case "outcome fingerprint is deterministic" `Quick
      test_outcome_fingerprint_deterministic;
    Alcotest.test_case "replica fingerprint is deterministic" `Slow
      test_replica_fingerprint_deterministic;
    Alcotest.test_case "replica run outlasts its driver (seed 10)" `Slow
      test_replica_run_outlasts_its_driver;
    Alcotest.test_case "check_all reports every failing oracle" `Quick
      test_check_all_reports_every_failure;
    Alcotest.test_case "replica verdict text of diverged tables" `Quick
      test_replica_verdict_text;
  ]
