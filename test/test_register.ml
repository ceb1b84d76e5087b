(* Atomic registers and snapshot objects over SCD-broadcast: directed
   end-to-end tests (barriered reads, crash durability, at-most-once
   request records, table convergence) plus the harness self-test — the
   register_mutated scenario must be caught by the linearizability oracle
   and shrink to a small counterexample, mirroring bank_mutated. *)

open Dcp_wire
module Runtime = Dcp_core.Runtime
module Register = Dcp_primitives.Register
module Snapshot = Dcp_primitives.Snapshot
module Scd = Dcp_primitives.Scd
module Rpc = Dcp_primitives.Rpc
module Clock = Dcp_sim.Clock
module Metrics = Dcp_sim.Metrics
module Trace = Dcp_sim.Trace
module Topology = Dcp_net.Topology
module Link = Dcp_net.Link
module Store = Dcp_stable.Store
module Check = Dcp_check
module Scenario = Dcp_check.Scenario
module Scenarios = Dcp_check.Scenarios

let members = 3

let make_world ?(seed = 91) () =
  Runtime.create_world ~seed ~topology:(Topology.full_mesh ~n:(members + 1) Link.lan) ()

let driver =
  let i = ref 0 in
  fun world ~at body ->
    incr i;
    let name = Printf.sprintf "register_driver_%d" !i in
    let def =
      { Runtime.def_name = name; provides = []; init = (fun ctx _ -> body ctx); recover = None }
    in
    Runtime.register_def world def;
    ignore (Runtime.create_guardian world ~at ~def_name:name ~args:[])

let make_group ?(stale_reads = false) world =
  Array.of_list
    (Register.create_group world ~nodes:(List.init members Fun.id) ~stale_reads
       ~introduce_at:members ())

let timeout = Clock.s 2

let test_write_then_read_cross_member () =
  let world = make_world () in
  let ports = make_group world in
  let observed = ref None in
  driver world ~at:members (fun ctx ->
      Runtime.sleep ctx (Clock.ms 300);
      let wrote =
        Register.write ctx ~register:ports.(0) ~key:"a" ~value:(Value.int 7) ~timeout
      in
      Alcotest.(check bool) "write acknowledged" true wrote;
      (* The ack implies delivery group-wide order; a barriered read at
         another member must observe it. *)
      observed := Register.read ctx ~register:ports.(2) ~key:"a" ~timeout);
  Runtime.run_for world (Clock.s 20);
  Alcotest.(check (option string))
    "cross-member read sees the acked write" (Some "7")
    (Option.map Value.to_string !observed)

let test_unknown_key () =
  let world = make_world () in
  let ports = make_group world in
  let observed = ref (Some (Value.int 0)) in
  driver world ~at:members (fun ctx ->
      Runtime.sleep ctx (Clock.ms 300);
      observed := Register.read ctx ~register:ports.(1) ~key:"never-written" ~timeout);
  Runtime.run_for world (Clock.s 20);
  Alcotest.(check bool) "unknown key reads as absent" true (!observed = None)

let test_last_writer_wins_and_convergence () =
  let world = make_world () in
  let ports = make_group world in
  let final = ref None in
  driver world ~at:members (fun ctx ->
      Runtime.sleep ctx (Clock.ms 300);
      (* Writes through different members; delivery order decides. *)
      ignore (Register.write ctx ~register:ports.(0) ~key:"k" ~value:(Value.int 1) ~timeout);
      ignore (Register.write ctx ~register:ports.(1) ~key:"k" ~value:(Value.int 2) ~timeout);
      ignore (Register.write ctx ~register:ports.(2) ~key:"k" ~value:(Value.int 3) ~timeout);
      final := Register.read ctx ~register:ports.(0) ~key:"k" ~timeout);
  Runtime.run_for world (Clock.s 20);
  Alcotest.(check (option string))
    "sequential writes end on the last value" (Some "3")
    (Option.map Value.to_string !final);
  (* Every member's durable table must agree exactly. *)
  let tables =
    Runtime.find_guardians world ~def_name:Register.def_name
    |> List.map (fun g -> Register.Table.in_store (Runtime.guardian_store g))
  in
  Alcotest.(check int) "all members inspected" members (List.length tables);
  match tables with
  | [] -> Alcotest.fail "no member tables"
  | first :: rest ->
      List.iter
        (fun other ->
          Alcotest.(check bool) "durable tables identical" true (first = other))
        rest

(* The two SCD objects, seen through the same write/read/raw-call shape so
   the durability and at-most-once tests run against both. *)
type scd_object = {
  def_name : string;
  create : Runtime.world -> Port_name.t array;
  write_command : string;
  ack : string;
  put : Runtime.ctx -> Port_name.t -> key:string -> value:Value.t -> bool;
  get : Runtime.ctx -> Port_name.t -> key:string -> Value.t option;
}

let register_object =
  {
    def_name = Register.def_name;
    create = (fun world -> make_group world);
    write_command = "write";
    ack = "written";
    put = (fun ctx register ~key ~value -> Register.write ctx ~register ~key ~value ~timeout);
    get = (fun ctx register ~key -> Register.read ctx ~register ~key ~timeout);
  }

let snapshot_object =
  {
    def_name = Snapshot.def_name;
    create =
      (fun world ->
        Array.of_list
          (Snapshot.create_group world ~nodes:(List.init members Fun.id)
             ~introduce_at:members ()));
    write_command = "update";
    ack = "updated";
    put = (fun ctx snapshot ~key ~value -> Snapshot.update ctx ~snapshot ~key ~value ~timeout);
    get =
      (fun ctx snapshot ~key ->
        Option.bind (Snapshot.scan ctx ~snapshot ~timeout) (List.assoc_opt key));
  }

let both_objects test () = List.iter test [ register_object; snapshot_object ]

let test_crash_recovery_durability obj =
  let world = make_world () in
  let ports = obj.create world in
  let reread = ref None in
  driver world ~at:members (fun ctx ->
      Runtime.sleep ctx (Clock.ms 300);
      ignore (obj.put ctx ports.(1) ~key:"d" ~value:(Value.int 11)));
  Runtime.run_for world (Clock.s 5);
  (* Kill every member node; recovery must rebuild clock, frontier and
     table from the stores alone. *)
  for node = 0 to members - 1 do
    Runtime.crash_node world node
  done;
  Runtime.run_for world (Clock.ms 100);
  for node = 0 to members - 1 do
    Runtime.restart_node world node
  done;
  driver world ~at:members (fun ctx ->
      Runtime.sleep ctx (Clock.ms 500);
      reread := obj.get ctx ports.(0) ~key:"d");
  Runtime.run_for world (Clock.s 20);
  Alcotest.(check (option string))
    (obj.def_name ^ ": write survives a full-group crash")
    (Some "11")
    (Option.map Value.to_string !reread)

let test_duplicate_rid_not_reexecuted obj =
  let world = make_world () in
  let ports = obj.create world in
  let replies = ref [] in
  let ts_after_first = ref [] in
  let ts_after_dup = ref [] in
  let member_tables () =
    Runtime.find_guardians world ~def_name:obj.def_name
    |> List.map (fun g -> Register.Table.in_store (Runtime.guardian_store g))
  in
  driver world ~at:members (fun ctx ->
      Runtime.sleep ctx (Clock.ms 300);
      let call () =
        match
          Rpc.call ctx ~to_:ports.(0) ~timeout ~attempts:1 ~request_id:4_200_000_001
            obj.write_command
            [ Value.str "r"; Value.int 5 ]
        with
        | Rpc.Reply (cmd, _) -> replies := cmd :: !replies
        | Rpc.Failure_msg _ | Rpc.Timeout -> replies := "timeout" :: !replies
      in
      call ();
      ts_after_first := member_tables ();
      (* A client retry of the same request id must get the recorded reply
         back without a second broadcast — a fresh timestamp here is the
         double-apply that breaks atomicity. *)
      call ();
      Runtime.sleep ctx (Clock.s 2);
      ts_after_dup := member_tables ());
  Runtime.run_for world (Clock.s 20);
  Alcotest.(check (list string))
    (obj.def_name ^ ": both calls acknowledged")
    [ obj.ack; obj.ack ] !replies;
  Alcotest.(check bool)
    (obj.def_name ^ ": duplicate left every timestamp unchanged")
    true
    (!ts_after_first = !ts_after_dup)

let test_snapshot_atomic_view () =
  let world = make_world () in
  let ports = snapshot_object.create world in
  let view = ref None in
  driver world ~at:members (fun ctx ->
      Runtime.sleep ctx (Clock.ms 300);
      ignore (Snapshot.update ctx ~snapshot:ports.(0) ~key:"x" ~value:(Value.int 1) ~timeout);
      ignore (Snapshot.update ctx ~snapshot:ports.(1) ~key:"y" ~value:(Value.int 2) ~timeout);
      view := Snapshot.scan ctx ~snapshot:ports.(2) ~timeout);
  Runtime.run_for world (Clock.s 20);
  match !view with
  | None -> Alcotest.fail "snapshot timed out"
  | Some entries ->
      Alcotest.(check (list (pair string string)))
        "scan sees both updates, key-sorted"
        [ ("x", "1"); ("y", "2") ]
        (List.map (fun (k, v) -> (k, Value.to_string v)) entries)

(* ---- the harness self-test, mirroring test_check's bank_mutated ---- *)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = affix || at (i + 1)) in
  n = 0 || at 0

let profile name =
  match Check.Profile.find name with
  | Some p -> p
  | None -> Alcotest.failf "unknown profile %s" name

let test_register_mutation_detected () =
  let outcome =
    Scenario.execute Scenarios.register_mutated ~seed:1 ~profile:(profile "lan") ()
  in
  match Scenario.fail_reason outcome with
  | None -> Alcotest.fail "barrier-free register passed the oracles: the checker is blind"
  | Some reason ->
      Alcotest.(check bool)
        "failure implicates the linearizability oracle" true
        (contains ~affix:"linearizable" reason)

let test_register_honest_twin_passes () =
  let outcome = Scenario.execute Scenarios.register ~seed:1 ~profile:(profile "lan") () in
  match Scenario.fail_reason outcome with
  | None -> ()
  | Some reason -> Alcotest.failf "honest register scenario failed: %s" reason

let test_register_mutation_shrinks () =
  match
    Check.Shrink.run Scenarios.register_mutated ~seed:1 ~profile:(profile "lan") ~budget:60 ()
  with
  | Error e -> Alcotest.failf "nothing to shrink: %s" e
  | Ok cx ->
      Alcotest.(check bool) "some shrink step accepted" true (cx.Check.Shrink.accepted > 0);
      Alcotest.(check bool) "workload minimised" true (cx.Check.Shrink.workload <= 24);
      let replay =
        Scenario.execute Scenarios.register_mutated ~seed:cx.Check.Shrink.seed
          ~profile:(profile cx.Check.Shrink.profile)
          ~horizon:cx.Check.Shrink.horizon ~workload:cx.Check.Shrink.workload
          ~intensity:cx.Check.Shrink.intensity ()
      in
      (match Scenario.fail_reason replay with
      | Some _ -> ()
      | None -> Alcotest.fail "shrunk counterexample does not reproduce");
      Alcotest.(check bool)
        "replay hint names the scenario" true
        (contains ~affix:"register_mutated" (Check.Shrink.replay_hint cx))

(* ---- SCD Termination, read from the members' durable progress ---- *)

let termination = Check.Oracle.scd_termination ~def_name:Register.def_name

let termination_verdict world =
  match termination.Check.Oracle.check world with Ok () -> "ok" | Error reason -> reason

(* Whether each member's durable table holds [key], in member order. *)
let holders world key =
  Runtime.find_guardians world ~def_name:Register.def_name
  |> List.map (fun g -> List.mem_assoc key (Register.Table.in_store (Runtime.guardian_store g)))

let test_scd_termination () =
  (* At 20% loss members deliver at different times: in this world, at
     750 ms the write below is delivered at two members and not yet at
     the third. *)
  let world =
    Runtime.create_world ~seed:3
      ~topology:(Topology.full_mesh ~n:(members + 1) (Link.lossy 0.2))
      ()
  in
  let ports = make_group world in
  driver world ~at:members (fun ctx ->
      Runtime.sleep ctx (Clock.ms 300);
      ignore (Register.write ctx ~register:ports.(0) ~key:"t" ~value:(Value.int 1) ~timeout));
  Runtime.run_for world (Clock.ms 750);
  Alcotest.(check (list bool)) "delivered at two members of three" [ true; true; false ]
    (holders world "t");
  Alcotest.(check string) "the lagging member fails termination"
    "member 2 has delivered 0 of origin 0's 1 broadcasts" (termination_verdict world);
  Runtime.run_for world (Clock.s 2);
  Alcotest.(check (list bool)) "delivered everywhere" [ true; true; true ] (holders world "t");
  Alcotest.(check string) "termination holds" "ok" (termination_verdict world);
  Runtime.crash_node world 1;
  Alcotest.(check string) "a member that is down fails termination"
    "a scd_register store is still crashed at check time" (termination_verdict world);
  Runtime.restart_node world 1;
  Runtime.run_for world (Clock.s 1);
  Alcotest.(check string) "termination holds once the member is back" "ok"
    (termination_verdict world)

(* ---- statuses only where a peer needs one ---- *)

(* Member i sits at node i, so its origin index is i. *)
let lossless_world ?(latency = 0) seed =
  Runtime.create_world ~seed
    ~topology:
      (Topology.full_mesh ~n:(members + 1) { Link.perfect with Link.base_latency = latency })
    ~config:{ Runtime.default_config with trace = true }
    ()

(* Asks and answers the members sent at or after [since].  An untraced
   world's trace is empty, which would make every count here a vacuous 0. *)
let statuses_sent world ~since =
  if Trace.size (Runtime.trace world) = 0 then Alcotest.fail "the world keeps no trace";
  Trace.find (Runtime.trace world) ~category:"send"
  |> List.filter (fun (e : Trace.event) ->
         e.Trace.at >= since
         && String.starts_with ~prefix:(Register.def_name ^ "#") e.Trace.detail
         && (contains ~affix:": scd_ask(" e.Trace.detail
            || contains ~affix:": scd_status(" e.Trace.detail))
  |> List.length

(* Write key "k<i>" through member i, for every member in turn, each
   write retried until acknowledged, so every member broadcasts however
   many client messages the link drops. *)
let write_each ctx ports =
  Runtime.sleep ctx (Clock.ms 300);
  Array.iteri
    (fun i register ->
      let key = Printf.sprintf "k%d" i in
      while not (Register.write ctx ~register ~key ~value:(Value.int i) ~timeout) do
        ()
      done)
    ports

let check_silent_for_10s world =
  let since = Runtime.now world in
  Runtime.run_for world (Clock.s 10);
  Alcotest.(check int) "no ask or status for 10 s" 0 (statuses_sent world ~since)

let test_idle_group_is_silent () =
  let world = lossless_world 91 in
  let ports = make_group world in
  driver world ~at:members (fun ctx -> write_each ctx ports);
  Runtime.run_for world (Clock.s 3);
  Alcotest.(check (list bool)) "every write delivered everywhere" [ true; true; true ]
    (holders world "k2");
  Alcotest.(check string) "termination holds" "ok" (termination_verdict world);
  Alcotest.(check bool) "the group did exchange statuses" true (statuses_sent world ~since:0 > 0);
  check_silent_for_10s world

(* Member 2 crashes after members 0 and 1 delivered a write on its say-so
   but before it delivered the write itself: the write is lost from its
   volatile queue, and no peer needs anything from it any more.  Only
   asking everyone after its restart tells it what it lacks. *)
let test_restarted_member_catches_up () =
  let world = lossless_world ~latency:(Clock.ms 5) 8 in
  let ports = make_group world in
  driver world ~at:members (fun ctx ->
      Runtime.sleep ctx (Clock.ms 300);
      ignore (Register.write ctx ~register:ports.(0) ~key:"k" ~value:(Value.int 1) ~timeout));
  let rec until_window steps =
    if holders world "k" = [ true; true; false ] then ()
    else if steps = 0 then Alcotest.fail "member 2 never lagged behind members 0 and 1"
    else begin
      Runtime.run_for world (Clock.ms 1);
      until_window (steps - 1)
    end
  in
  until_window 2000;
  Runtime.crash_node world 2;
  let down_from = Runtime.now world in
  Runtime.run_for world (Clock.s 2);
  Alcotest.(check int) "nobody asks the crashed member" 0 (statuses_sent world ~since:down_from);
  Runtime.restart_node world 2;
  Runtime.run_for world (Clock.s 2);
  Alcotest.(check (list bool)) "the restarted member caught up" [ true; true; true ]
    (holders world "k");
  Alcotest.(check string) "termination holds" "ok" (termination_verdict world);
  check_silent_for_10s world

let test_termination_under_loss () =
  let world =
    Runtime.create_world ~seed:1
      ~topology:(Topology.full_mesh ~n:(members + 1) (Link.lossy 0.2))
      ()
  in
  let ports = make_group world in
  driver world ~at:members (fun ctx -> write_each ctx ports);
  Runtime.run_for world (Clock.s 20);
  List.iter
    (fun key ->
      Alcotest.(check (list bool)) (key ^ " delivered everywhere") [ true; true; true ]
        (holders world key))
    [ "k0"; "k1"; "k2" ];
  Alcotest.(check string) "termination holds" "ok" (termination_verdict world)

(* An ask is answered with one status; a status is never answered.  The
   injected status is member 1's own, as it stands, so it gives member 0
   no need of its own.  The links take 5 ms, so statuses answering each
   other would show as a count, not as a loop that never leaves its
   instant. *)
let test_status_not_answered () =
  let world = lossless_world ~latency:(Clock.ms 5) 91 in
  let ports = make_group world in
  driver world ~at:members (fun ctx -> write_each ctx ports);
  Runtime.run_for world (Clock.s 3);
  let broadcasts =
    Runtime.find_guardians world ~def_name:Register.def_name
    |> List.map (fun g ->
           match
             Scd.progress_in_store (Runtime.guardian_store g)
               ~port:(List.hd (Runtime.guardian_ports g))
           with
           | Some p -> Value.int p.Scd.broadcast
           | None -> Alcotest.fail "a member has no SCD progress")
  in
  let status = [ Value.int 1; Value.int 0; Value.list broadcasts; Value.list broadcasts ] in
  let inject command =
    let since = Runtime.now world in
    driver world ~at:members (fun ctx -> Runtime.send ctx ~to_:ports.(0) command status);
    Runtime.run_for world (Clock.s 1);
    statuses_sent world ~since
  in
  Alcotest.(check int) "a status sends nothing" 0 (inject "scd_status");
  Alcotest.(check int) "an ask gets one status back, and nothing follows" 1 (inject "scd_ask")

(* The register runner's stop rule is sound: from the stop point, 60 s
   more of virtual time under the same (finished) crash plan changes no
   member's table and no verdict. *)
let test_nothing_changes_after_stop (profile_name, seed) () =
  let horizon = Clock.s 4 in
  let world =
    Scenarios.register_at_stop
      { Scenario.seed; profile = profile profile_name; horizon; workload = 48; shards = 1;
        parallel = false }
  in
  Alcotest.(check bool) "stopped before the 60 s limit" true
    (Runtime.now world < horizon + Clock.s 60);
  let oracles =
    [
      Check.Oracle.linearizable ~clients:"scd_register_client" ();
      Check.Oracle.table_convergence ~def_name:Register.def_name;
      termination;
      Check.Oracle.stable_durability;
    ]
  in
  let observe () =
    ( Runtime.find_guardians world ~def_name:Register.def_name
      |> List.map (fun g -> Register.Table.in_store (Runtime.guardian_store g)),
      List.map (fun (o : Check.Oracle.t) -> (o.name, o.check world)) oracles )
  in
  let tables, verdicts = observe () in
  Runtime.run_for world (Clock.s 60);
  let tables_after, verdicts_after = observe () in
  Alcotest.(check (list (list (pair string (pair int int))))) "member tables unchanged" tables
    tables_after;
  Alcotest.(check (list (pair string (result unit string)))) "verdicts unchanged" verdicts
    verdicts_after

let tests =
  [
    Alcotest.test_case "write then cross-member read" `Quick test_write_then_read_cross_member;
    Alcotest.test_case "unknown key" `Quick test_unknown_key;
    Alcotest.test_case "last writer wins; tables converge" `Quick
      test_last_writer_wins_and_convergence;
    Alcotest.test_case "writes survive a full-group crash" `Quick
      (both_objects test_crash_recovery_durability);
    Alcotest.test_case "duplicate request id is not re-executed" `Quick
      (both_objects test_duplicate_rid_not_reexecuted);
    Alcotest.test_case "snapshot returns an atomic view" `Quick test_snapshot_atomic_view;
    Alcotest.test_case "barrier-free register is detected" `Slow test_register_mutation_detected;
    Alcotest.test_case "honest register twin passes" `Slow test_register_honest_twin_passes;
    Alcotest.test_case "register mutation shrinks" `Slow test_register_mutation_shrinks;
    Alcotest.test_case "scd_termination over a lossy group" `Quick test_scd_termination;
    Alcotest.test_case "an idle group sends no status" `Quick test_idle_group_is_silent;
    Alcotest.test_case "a restarted member asks and catches up" `Quick
      test_restarted_member_catches_up;
    Alcotest.test_case "scd_termination at 20% loss without keepalive" `Quick
      test_termination_under_loss;
    Alcotest.test_case "a status is never answered" `Quick test_status_not_answered;
    Alcotest.test_case "nothing changes after the stop (wan+lossy+crash)" `Slow
      (test_nothing_changes_after_stop ("wan+lossy+crash", 3));
    Alcotest.test_case "nothing changes after the stop (wan+lossy+crash+disk)" `Slow
      (test_nothing_changes_after_stop ("wan+lossy+crash+disk", 13));
  ]
