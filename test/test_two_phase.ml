(* Two-phase commit: the protocol itself and the airline's atomic
   multi-leg itineraries built on it. *)

open Dcp_wire
module Runtime = Dcp_core.Runtime
module Rpc = Dcp_primitives.Rpc
module Two_phase = Dcp_primitives.Two_phase
module Flight = Dcp_airline.Flight
module Itinerary = Dcp_airline.Itinerary
module Clock = Dcp_sim.Clock
module Topology = Dcp_net.Topology
module Link = Dcp_net.Link

let make_world ?(n = 4) ?(link = Link.perfect) () =
  Runtime.create_world ~seed:51 ~topology:(Topology.full_mesh ~n link) ()

let fresh_driver_name =
  let i = ref 0 in
  fun () ->
    incr i;
    Printf.sprintf "tpc_driver_%d" !i

let driver world ~at body =
  let name = fresh_driver_name () in
  let def =
    { Runtime.def_name = name; provides = []; init = (fun ctx _ -> body ctx); recover = None }
  in
  Runtime.register_def world def;
  ignore (Runtime.create_guardian world ~at ~def_name:name ~args:[])

(* Fixture: two flights on two nodes, an itinerary guardian on a third. *)
let trip_fixture ?(capacity = 2) world =
  let f1 = Flight.create world ~at:0 ~flight:1 ~capacity ~service_time:(Clock.us 100) () in
  let f2 = Flight.create world ~at:1 ~flight:2 ~capacity ~service_time:(Clock.us 100) () in
  let itinerary = Itinerary.create world ~at:2 ~directory:[ (1, f1); (2, f2) ] () in
  (f1, f2, itinerary)

let book ctx itinerary ~command ~passenger legs =
  let legs = List.map (fun (f, d) -> Value.tuple [ Value.int f; Value.int d ]) legs in
  match
    Rpc.call ctx ~to_:itinerary ~timeout:(Clock.s 5) command
      [ Value.str passenger; Value.list legs ]
  with
  | Rpc.Reply (reply, args) -> (reply, args)
  | Rpc.Failure_msg reason -> ("failure", [ Value.str reason ])
  | Rpc.Timeout -> ("timeout", [])

let passengers_on ctx flight ~date =
  match Rpc.call ctx ~to_:flight ~timeout:(Clock.ms 500) "list_passengers" [ Value.int date ] with
  | Rpc.Reply ("info", [ Value.Listv names ]) -> List.map Value.get_str names
  | _ -> []

let test_trip_commits_both_legs () =
  let world = make_world () in
  let f1, f2, itinerary = trip_fixture world in
  let outcome = ref "" and on1 = ref [] and on2 = ref [] in
  driver world ~at:3 (fun ctx ->
      let reply, _ = book ctx itinerary ~command:"book_trip" ~passenger:"amy" [ (1, 7); (2, 8) ] in
      outcome := reply;
      on1 := passengers_on ctx f1 ~date:7;
      on2 := passengers_on ctx f2 ~date:8);
  Runtime.run_for world (Clock.s 5);
  Alcotest.(check string) "booked" "booked" !outcome;
  Alcotest.(check (list string)) "leg 1 committed" [ "amy" ] !on1;
  Alcotest.(check (list string)) "leg 2 committed" [ "amy" ] !on2

let test_trip_atomic_when_one_leg_full () =
  let world = make_world () in
  let f1, f2, itinerary = trip_fixture ~capacity:1 world in
  let first = ref "" and second = ref "" and on1 = ref [] in
  driver world ~at:3 (fun ctx ->
      (* Fill flight 2 date 8 directly. *)
      (match
         Rpc.call ctx ~to_:f2 ~timeout:(Clock.ms 500) "reserve"
           [ Value.str "hog"; Value.int 8 ]
       with
      | Rpc.Reply ("ok", _) -> ()
      | _ -> Alcotest.fail "setup reserve failed");
      let reply, _ = book ctx itinerary ~command:"book_trip" ~passenger:"bea" [ (1, 7); (2, 8) ] in
      first := reply;
      (* Flight 1 must NOT hold a seat for bea: a new booking on the same
         (now free) leg succeeds for someone else up to capacity. *)
      on1 := passengers_on ctx f1 ~date:7;
      let reply, _ = book ctx itinerary ~command:"book_trip" ~passenger:"cal" [ (1, 7) ] in
      second := reply);
  Runtime.run_for world (Clock.s 5);
  Alcotest.(check string) "aborted" "unavailable" !first;
  Alcotest.(check (list string)) "no dangling seat on leg 1" [] !on1;
  Alcotest.(check string) "seat still bookable" "booked" !second

let test_naive_baseline_strands () =
  let world = make_world () in
  let f1, f2, itinerary = trip_fixture ~capacity:1 world in
  ignore f1;
  let outcome = ref ("", []) in
  driver world ~at:3 (fun ctx ->
      (match
         Rpc.call ctx ~to_:f2 ~timeout:(Clock.ms 500) "reserve"
           [ Value.str "hog"; Value.int 8 ]
       with
      | Rpc.Reply ("ok", _) -> ()
      | _ -> Alcotest.fail "setup reserve failed");
      outcome := book ctx itinerary ~command:"book_naive" ~passenger:"dot" [ (1, 7); (2, 8) ]);
  Runtime.run_for world (Clock.s 5);
  match !outcome with
  | "stranded", [ Value.Int 1 ] -> ()
  | reply, _ -> Alcotest.failf "expected stranded(1), got %s" reply

let test_contending_trips_no_overbooking () =
  let world = make_world () in
  let f1, _, itinerary = trip_fixture ~capacity:3 world in
  let booked = ref 0 and refused = ref 0 in
  (* Eight passengers race for 3 seats on the shared leg (1, 7). *)
  for i = 1 to 8 do
    driver world ~at:3 (fun ctx ->
        let reply, _ =
          book ctx itinerary ~command:"book_trip"
            ~passenger:(Printf.sprintf "p%d" i)
            [ (1, 7); (2, i) ]
        in
        match reply with
        | "booked" -> incr booked
        | _ -> incr refused)
  done;
  let seats = ref [] in
  Runtime.run_for world (Clock.s 10);
  driver world ~at:3 (fun ctx -> seats := passengers_on ctx f1 ~date:7);
  Runtime.run_for world (Clock.s 1);
  Alcotest.(check int) "exactly capacity booked" 3 !booked;
  Alcotest.(check int) "rest refused" 5 !refused;
  Alcotest.(check int) "no overbooking on the contended leg" 3 (List.length !seats)

let test_coordinator_crash_after_decision () =
  (* Crash the itinerary node right after the decision is logged but
     (likely) before announcements are acked; recovery must re-announce so
     participants converge, and the booking must be visible. *)
  let world = make_world () in
  let f1, f2, itinerary = trip_fixture world in
  let outcome = ref "" in
  driver world ~at:3 (fun ctx ->
      let reply, _ = book ctx itinerary ~command:"book_trip" ~passenger:"eve" [ (1, 7); (2, 8) ] in
      outcome := reply);
  (* Let phase 1 finish and the decision land, then crash. *)
  Runtime.run_for world (Clock.ms 2);
  Runtime.crash_node world 2;
  Runtime.run_for world (Clock.s 1);
  Runtime.restart_node world 2;
  Runtime.run_for world (Clock.s 10);
  let holds_left =
    List.fold_left
      (fun acc g ->
        let store = Runtime.guardian_store g in
        if Dcp_stable.Store.is_crashed store then acc
        else
          Dcp_stable.Store.fold store ~init:acc ~f:(fun ~key _ acc ->
              if String.length key > 2 && String.equal (String.sub key 0 2) "h:" then acc + 1
              else acc))
      0
      (Runtime.find_guardians world ~def_name:Flight.def_name)
  in
  let seats = ref ([], []) in
  driver world ~at:3 (fun ctx ->
      seats := (passengers_on ctx f1 ~date:7, passengers_on ctx f2 ~date:8));
  Runtime.run_for world (Clock.s 1);
  let on1, on2 = !seats in
  Alcotest.(check int) "no dangling holds" 0 holds_left;
  Alcotest.(check bool)
    "both legs agree" true
    ((on1 = [ "eve" ] && on2 = [ "eve" ]) || (on1 = [] && on2 = []));
  (* The coordinator logged and recovered; no decision left unacked. *)
  List.iter
    (fun g ->
      Alcotest.(check int) "all decisions acked" 0
        (Two_phase.pending_decisions (Runtime.guardian_store g)))
    (Runtime.find_guardians world ~def_name:Itinerary.def_name)

let test_participant_crash_holding_seat () =
  (* A participant crashes after prepare; on recovery it still holds the
     tentative seat (logged) and answers the commit. *)
  let world = make_world () in
  let f1, f2, itinerary = trip_fixture world in
  ignore f2;
  let outcome = ref "" in
  driver world ~at:3 (fun ctx ->
      let reply, _ = book ctx itinerary ~command:"book_trip" ~passenger:"fay" [ (1, 7); (2, 8) ] in
      outcome := reply);
  (* Crash flight 1's node in the thick of the protocol, restart quickly;
     the coordinator's announce retries bridge the outage. *)
  Runtime.run_for world (Clock.us 500);
  Runtime.crash_node world 0;
  Runtime.run_for world (Clock.ms 100);
  Runtime.restart_node world 0;
  Runtime.run_for world (Clock.s 10);
  let seats = ref [] in
  driver world ~at:3 (fun ctx -> seats := passengers_on ctx f1 ~date:7);
  Runtime.run_for world (Clock.s 1);
  match !outcome with
  | "booked" -> Alcotest.(check (list string)) "seat survived the crash" [ "fay" ] !seats
  | "unavailable" -> Alcotest.(check (list string)) "clean abort" [] !seats
  | other -> Alcotest.failf "unexpected outcome %s" other

let test_duplicate_prepare_idempotent () =
  let world = make_world ~n:2 () in
  let flight = Flight.create world ~at:0 ~flight:1 ~capacity:5 ~service_time:(Clock.us 10) () in
  let votes = ref [] in
  driver world ~at:1 (fun ctx ->
      let reply = Runtime.new_port ctx [ Vtype.wildcard ] in
      let payload = Value.tuple [ Value.str "gil"; Value.int 3 ] in
      let send_prepare () =
        Runtime.send ctx ~to_:flight
          ~reply_to:(Dcp_core.Port.name reply)
          "prepare"
          [ Value.int 777000; Value.int 424242; payload ]
      in
      send_prepare ();
      send_prepare ();
      for _ = 1 to 2 do
        match Runtime.receive ctx ~timeout:(Clock.s 1) [ reply ] with
        | `Msg (_, msg) -> votes := msg.Dcp_core.Message.command :: !votes
        | `Timeout -> ()
      done;
      (* both votes commit, but only one hold exists *)
      ());
  Runtime.run_for world (Clock.s 3);
  Alcotest.(check (list string)) "same vote twice" [ "vote_commit"; "vote_commit" ] !votes;
  let holds =
    List.fold_left
      (fun acc g ->
        Dcp_stable.Store.fold (Runtime.guardian_store g) ~init:acc ~f:(fun ~key _ acc ->
            if String.length key > 2 && String.equal (String.sub key 0 2) "h:" then acc + 1
            else acc))
      0
      (Runtime.find_guardians world ~def_name:Flight.def_name)
  in
  Alcotest.(check int) "single hold despite duplicate prepare" 1 holds

let tests =
  [
    Alcotest.test_case "trip commits both legs" `Quick test_trip_commits_both_legs;
    Alcotest.test_case "atomic abort when a leg is full" `Quick test_trip_atomic_when_one_leg_full;
    Alcotest.test_case "naive baseline strands passengers" `Quick test_naive_baseline_strands;
    Alcotest.test_case "contention: no overbooking" `Quick test_contending_trips_no_overbooking;
    Alcotest.test_case "coordinator crash after decision" `Quick test_coordinator_crash_after_decision;
    Alcotest.test_case "participant crash while prepared" `Quick test_participant_crash_holding_seat;
    Alcotest.test_case "duplicate prepare idempotent" `Quick test_duplicate_prepare_idempotent;
  ]
