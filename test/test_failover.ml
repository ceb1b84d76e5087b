(* Availability through redundancy: §1 lists "potential for better
   reliability and higher availability" among the advantages of
   distribution.  A client keeps service alive across a primary's crash by
   failing over to a replica at another node, switching on the heartbeat
   detector's verdict. *)

open Dcp_wire
module Runtime = Dcp_core.Runtime
module Primordial = Dcp_core.Primordial
module Message = Dcp_core.Message
module Heartbeat = Dcp_primitives.Heartbeat
module Replica = Dcp_primitives.Replica
module Rpc = Dcp_primitives.Rpc
module Clock = Dcp_sim.Clock
module Topology = Dcp_net.Topology
module Link = Dcp_net.Link

let test_failover_keeps_service_alive () =
  let world =
    Runtime.create_world ~seed:59 ~topology:(Topology.full_mesh ~n:3 Link.lan) ()
  in
  Primordial.install world;
  (* A replicated register group provides the redundant service: writes
     reach whichever replica the client currently trusts and propagate. *)
  let replicas = Replica.create_group world ~nodes:[ 0; 1 ] ~sync_every:(Clock.ms 100) () in
  let primary = List.nth replicas 0 and backup = List.nth replicas 1 in
  let served = ref 0 and failed = ref 0 and switched_at = ref None in
  let client : Runtime.def =
    {
      Runtime.def_name = "failover_client";
      provides = [];
      init =
        (fun ctx _ ->
          let notify = Runtime.new_port ctx ~capacity:16 [ Vtype.wildcard ] in
          let watcher =
            Heartbeat.watch_node ctx ~node:0
              ~notify:(Dcp_core.Port.name notify)
              ~period:(Clock.ms 50) ~ping_timeout:(Clock.ms 30) ~misses:2 ()
          in
          let target = ref primary in
          (* Drain detector notifications opportunistically between writes. *)
          let poll_detector () =
            let rec drain () =
              match Runtime.receive ctx ~timeout:0 [ notify ] with
              | `Msg (_, { Message.command = "peer_down"; _ }) ->
                  target := backup;
                  if !switched_at = None then switched_at := Some (Runtime.ctx_now ctx);
                  drain ()
              | `Msg _ -> drain ()
              | `Timeout -> ()
            in
            drain ()
          in
          for i = 0 to 99 do
            poll_detector ();
            let ok =
              Replica.write ctx ~replica:!target ~key:"counter" ~value:(Value.int i)
                ~timeout:(Clock.ms 100)
            in
            if ok then incr served else incr failed;
            Runtime.sleep ctx (Clock.ms 20)
          done;
          Heartbeat.stop watcher);
      recover = None;
    }
  in
  Runtime.register_def world client;
  ignore (Runtime.create_guardian world ~at:2 ~def_name:"failover_client" ~args:[]);
  (* The primary's node dies mid-run and never comes back. *)
  Runtime.schedule_at world ~node:0 ~at:(Clock.ms 800) (fun () -> Runtime.crash_node world 0);
  Runtime.run_for world (Clock.s 30);
  Alcotest.(check bool)
    (Printf.sprintf "switched to the backup (at %s)"
       (Option.value (Option.map string_of_int !switched_at) ~default:"never"))
    true (!switched_at <> None);
  (* Only the writes issued between the crash and the detector's verdict
     may fail: a couple of detection periods' worth, not the rest of the
     run. *)
  Alcotest.(check bool)
    (Printf.sprintf "service continued (%d ok, %d failed)" !served !failed)
    true
    (!served >= 90 && !failed <= 10);
  (* And the value survived on the backup. *)
  let final = ref None in
  let probe : Runtime.def =
    {
      Runtime.def_name = "probe";
      provides = [];
      init =
        (fun ctx _ ->
          final := Replica.read ctx ~replica:backup ~key:"counter" ~timeout:(Clock.s 1));
      recover = None;
    }
  in
  Runtime.register_def world probe;
  ignore (Runtime.create_guardian world ~at:2 ~def_name:"probe" ~args:[]);
  Runtime.run_for world (Clock.s 2);
  match !final with
  | Some (Value.Int n) ->
      Alcotest.(check int) "last write visible on the backup" 99 n
  | _ -> Alcotest.fail "backup lost the data"

let tests =
  [ Alcotest.test_case "failover keeps service alive" `Quick test_failover_keeps_service_alive ]
