(* The banking system: branch guardians, exactly-once execution, the
   transfer saga, and conservation of money under crashes. *)

open Dcp_wire
module Runtime = Dcp_core.Runtime
module Rpc = Dcp_primitives.Rpc
module Branch = Dcp_bank.Branch
module Transfer = Dcp_bank.Transfer
module Audit = Dcp_bank.Audit
module Clock = Dcp_sim.Clock
module Topology = Dcp_net.Topology
module Link = Dcp_net.Link

let make_world ?(n = 3) ?(link = Link.perfect) () =
  Runtime.create_world ~seed:31 ~topology:(Topology.full_mesh ~n link) ()

let fresh_driver_name =
  let i = ref 0 in
  fun () ->
    incr i;
    Printf.sprintf "bank_driver_%d" !i

let driver world ~at body =
  let name = fresh_driver_name () in
  let def =
    { Runtime.def_name = name; provides = []; init = (fun ctx _ -> body ctx); recover = None }
  in
  Runtime.register_def world def;
  ignore (Runtime.create_guardian world ~at ~def_name:name ~args:[])

let call ctx port command args =
  match Rpc.call ctx ~to_:port ~timeout:(Clock.ms 500) ~attempts:3 command args with
  | Rpc.Reply (command, args) -> (command, args)
  | Rpc.Failure_msg reason -> ("failure", [ Value.str reason ])
  | Rpc.Timeout -> ("timeout", [])

(* ---- Branch ---- *)

let test_branch_operations () =
  let world = make_world () in
  let branch = Branch.create world ~at:0 ~accounts:[ ("alice", 100); ("bob", 50) ] () in
  let log = ref [] in
  driver world ~at:1 (fun ctx ->
      let note x = log := x :: !log in
      note (call ctx branch "balance" [ Value.str "alice" ]);
      note (call ctx branch "deposit" [ Value.str "alice"; Value.int 25 ]);
      note (call ctx branch "withdraw" [ Value.str "alice"; Value.int 200 ]);
      note (call ctx branch "withdraw" [ Value.str "bob"; Value.int 20 ]);
      note (call ctx branch "balance" [ Value.str "nobody" ]);
      note (call ctx branch "total" []));
  Runtime.run_for world (Clock.s 2);
  let commands = List.rev_map fst !log in
  Alcotest.(check (list string))
    "replies"
    [ "balance"; "ok"; "insufficient"; "ok"; "no_account"; "total" ]
    commands;
  match List.hd !log with
  | "total", [ Value.Int total ] -> Alcotest.(check int) "100+25+50-20" 155 total
  | _ -> Alcotest.fail "expected total"

let test_branch_exactly_once_on_duplicates () =
  let world = make_world () in
  let branch = Branch.create world ~at:0 ~accounts:[ ("acct", 100) ] () in
  let balance = ref 0 in
  driver world ~at:1 (fun ctx ->
      (* Send the same deposit request id twice, then read the balance. *)
      let reply = Runtime.new_port ctx [ Vtype.wildcard ] in
      let send () =
        Runtime.send ctx ~to_:branch
          ~reply_to:(Dcp_core.Port.name reply)
          "deposit"
          [ Value.int 555001; Value.str "acct"; Value.int 10 ]
      in
      send ();
      send ();
      ignore (Runtime.receive ctx ~timeout:(Clock.s 1) [ reply ]);
      ignore (Runtime.receive ctx ~timeout:(Clock.s 1) [ reply ]);
      match call ctx branch "balance" [ Value.str "acct" ] with
      | "balance", [ Value.Int b ] -> balance := b
      | _ -> ());
  Runtime.run_for world (Clock.s 3);
  Alcotest.(check int) "deposited exactly once" 110 !balance

let test_branch_exactly_once_across_crash () =
  let world = make_world () in
  let branch = Branch.create world ~at:0 ~accounts:[ ("acct", 100) ] () in
  let balance = ref 0 in
  driver world ~at:1 (fun ctx ->
      match call ctx branch "deposit" [ Value.str "acct"; Value.int 10 ] with
      | "ok", _ -> ()
      | _ -> Alcotest.fail "deposit failed");
  Runtime.run_for world (Clock.s 1);
  Runtime.crash_node world 0;
  Runtime.restart_node world 0;
  driver world ~at:1 (fun ctx ->
      match call ctx branch "balance" [ Value.str "acct" ] with
      | "balance", [ Value.Int b ] -> balance := b
      | _ -> ());
  Runtime.run_for world (Clock.s 2);
  Alcotest.(check int) "state durable" 110 !balance

(* ---- Transfer saga ---- *)

let bank_fixture world =
  let b0 = Branch.create world ~at:0 ~accounts:[ ("a0", 1000); ("a1", 1000) ] () in
  let b1 = Branch.create world ~at:1 ~accounts:[ ("b0", 1000); ("b1", 1000) ] () in
  let coordinator = Transfer.create world ~at:2 ~branches:[ b0; b1 ] () in
  (b0, b1, coordinator)

let transfer ctx coordinator ~from_branch ~from_account ~to_branch ~to_account ~amount =
  match
    Rpc.call ctx ~to_:coordinator ~timeout:(Clock.s 2) "transfer"
      [
        Value.int from_branch;
        Value.str from_account;
        Value.int to_branch;
        Value.str to_account;
        Value.int amount;
      ]
  with
  | Rpc.Reply (command, _) -> command
  | Rpc.Failure_msg _ -> "failure"
  | Rpc.Timeout -> "timeout"

let test_transfer_moves_money () =
  let world = make_world () in
  let b0, b1, coordinator = bank_fixture world in
  let outcome = ref "" and bal_from = ref 0 and bal_to = ref 0 in
  driver world ~at:2 (fun ctx ->
      outcome :=
        transfer ctx coordinator ~from_branch:0 ~from_account:"a0" ~to_branch:1
          ~to_account:"b0" ~amount:250;
      (match Audit.balance_of ctx ~branch:b0 ~account:"a0" with
      | Ok b -> bal_from := b
      | Error _ -> ());
      match Audit.balance_of ctx ~branch:b1 ~account:"b0" with
      | Ok b -> bal_to := b
      | Error _ -> ());
  Runtime.run_for world (Clock.s 5);
  Alcotest.(check string) "ok" "ok" !outcome;
  Alcotest.(check int) "debited" 750 !bal_from;
  Alcotest.(check int) "credited" 1250 !bal_to

let test_transfer_insufficient () =
  let world = make_world () in
  let _, _, coordinator = bank_fixture world in
  let outcome = ref "" in
  driver world ~at:2 (fun ctx ->
      outcome :=
        transfer ctx coordinator ~from_branch:0 ~from_account:"a0" ~to_branch:1
          ~to_account:"b0" ~amount:99999);
  Runtime.run_for world (Clock.s 5);
  Alcotest.(check string) "insufficient" "insufficient" !outcome

let test_transfer_refund_on_missing_dest () =
  let world = make_world () in
  let b0, _, coordinator = bank_fixture world in
  let outcome = ref "" and bal = ref 0 in
  driver world ~at:2 (fun ctx ->
      outcome :=
        transfer ctx coordinator ~from_branch:0 ~from_account:"a0" ~to_branch:1
          ~to_account:"ghost" ~amount:100;
      match Audit.balance_of ctx ~branch:b0 ~account:"a0" with
      | Ok b -> bal := b
      | Error _ -> ());
  Runtime.run_for world (Clock.s 5);
  Alcotest.(check string) "reported missing account" "no_account" !outcome;
  Alcotest.(check int) "refunded" 1000 !bal

let total_money world ~branches =
  let result = ref (Error "never ran") in
  driver world ~at:2 (fun ctx -> result := Audit.total_balance ctx ~branches);
  Runtime.run_for world (Clock.s 2);
  !result

let test_conservation_simple () =
  let world = make_world () in
  let b0, b1, coordinator = bank_fixture world in
  driver world ~at:2 (fun ctx ->
      for i = 1 to 10 do
        ignore
          (transfer ctx coordinator ~from_branch:(i mod 2) ~from_account:(if i mod 2 = 0 then "a0" else "b0")
             ~to_branch:((i + 1) mod 2)
             ~to_account:(if (i + 1) mod 2 = 0 then "a1" else "b1")
             ~amount:(10 * i))
      done);
  Runtime.run_for world (Clock.s 10);
  match total_money world ~branches:[ b0; b1 ] with
  | Ok total -> Alcotest.(check int) "money conserved" 4000 total
  | Error reason -> Alcotest.fail reason

let test_conservation_with_coordinator_crash () =
  let world = make_world () in
  let b0, b1, coordinator = bank_fixture world in
  (* Start transfers, crash the coordinator mid-flight, restart, let its
     recovery re-drive the saga, then audit. *)
  driver world ~at:2 (fun ctx ->
      for _ = 1 to 5 do
        ignore
          (transfer ctx coordinator ~from_branch:0 ~from_account:"a0" ~to_branch:1
             ~to_account:"b0" ~amount:50)
      done);
  (* Crash while sagas may be between withdraw and deposit. *)
  Runtime.run_for world (Clock.ms 1);
  Runtime.crash_node world 2;
  Runtime.restart_node world 2;
  Runtime.run_for world (Clock.s 30);
  Alcotest.(check int) "no transfer left hanging" 0 (Transfer.incomplete_transfers world);
  match total_money world ~branches:[ b0; b1 ] with
  | Ok total -> Alcotest.(check int) "money conserved across crash" 4000 total
  | Error reason -> Alcotest.fail reason

let test_conservation_with_branch_crash () =
  let world = make_world () in
  let b0, b1, coordinator = bank_fixture world in
  driver world ~at:2 (fun ctx ->
      for _ = 1 to 5 do
        ignore
          (transfer ctx coordinator ~from_branch:0 ~from_account:"a1" ~to_branch:1
             ~to_account:"b1" ~amount:30)
      done);
  (* The destination branch dies while deposits are in flight; the saga
     parks and retries until the branch recovers. *)
  Runtime.run_for world (Clock.ms 1);
  Runtime.crash_node world 1;
  Runtime.schedule_at world ~node:1 ~at:(Clock.s 3) (fun () -> Runtime.restart_node world 1);
  Runtime.run_for world (Clock.s 60);
  Alcotest.(check int) "sagas settled" 0 (Transfer.incomplete_transfers world);
  match total_money world ~branches:[ b0; b1 ] with
  | Ok total -> Alcotest.(check int) "money conserved across branch crash" 4000 total
  | Error reason -> Alcotest.fail reason

let tests =
  [
    Alcotest.test_case "branch operations" `Quick test_branch_operations;
    Alcotest.test_case "exactly-once on duplicates" `Quick test_branch_exactly_once_on_duplicates;
    Alcotest.test_case "exactly-once across crash" `Quick test_branch_exactly_once_across_crash;
    Alcotest.test_case "transfer moves money" `Quick test_transfer_moves_money;
    Alcotest.test_case "transfer insufficient" `Quick test_transfer_insufficient;
    Alcotest.test_case "refund on missing destination" `Quick test_transfer_refund_on_missing_dest;
    Alcotest.test_case "conservation (calm)" `Quick test_conservation_simple;
    Alcotest.test_case "conservation (coordinator crash)" `Quick test_conservation_with_coordinator_crash;
    Alcotest.test_case "conservation (branch crash)" `Quick test_conservation_with_branch_crash;
  ]
