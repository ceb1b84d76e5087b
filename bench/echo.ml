(* The benches' echo guardian and the round-trip world built around it. *)

open Dcp_wire
module Runtime = Dcp_core.Runtime
module Topology = Dcp_net.Topology
module Clock = Dcp_sim.Clock

(* One request port that accepts anything and answers every message
   carrying a reply port with a "pong" of the message's arguments. *)
let def def_name : Runtime.def =
  {
    Runtime.def_name;
    provides = [ ([ Vtype.wildcard ], 64) ];
    init =
      (fun ctx _ ->
        let ports = [ Runtime.port ctx 0 ] in
        let rec loop () =
          (match Runtime.receive ctx ports with
          | `Timeout -> ()
          | `Msg (_, msg) -> (
              match msg.Dcp_core.Message.reply_to with
              | Some reply -> Runtime.send ctx ~to_:reply "pong" msg.Dcp_core.Message.args
              | None -> ()));
          loop ()
        in
        loop ());
    recover = None;
  }

(* One node on a perfect link hosting an echo guardian and then [idle]
   guardians that do nothing, run to quiescence.  The returned function is
   the timed part: it creates one client guardian, which makes [pings]
   ping/pong round trips against the echo guardian, each ping carrying
   [args] and each pong taken with a 1 s timeout, and runs the world
   until it is quiescent again.  The defs are named [prefix] followed by
   "_echo", "_idle" and "_client". *)
let round_trip_world ~seed ~idle ~prefix ~pings ~args =
  let world =
    Runtime.create_world ~seed ~topology:(Topology.full_mesh ~n:1 Dcp_net.Link.perfect) ()
  in
  let name suffix = prefix ^ "_" ^ suffix in
  Runtime.register_def world
    { Runtime.def_name = name "idle"; provides = []; init = (fun _ _ -> ()); recover = None };
  Runtime.register_def world (def (name "echo"));
  let echo = Runtime.create_guardian world ~at:0 ~def_name:(name "echo") ~args:[] in
  let echo_port = List.hd (Runtime.guardian_ports echo) in
  for _ = 1 to idle do
    ignore (Runtime.create_guardian world ~at:0 ~def_name:(name "idle") ~args:[])
  done;
  Runtime.register_def world
    {
      Runtime.def_name = name "client";
      provides = [];
      init =
        (fun ctx _ ->
          let reply = Runtime.new_port ctx [ Vtype.wildcard ] in
          let reply_to = Dcp_core.Port.name reply and replies = [ reply ] in
          for _ = 1 to pings do
            Runtime.send ctx ~to_:echo_port ~reply_to "ping" args;
            match Runtime.receive ctx ~timeout:(Clock.s 1) replies with
            | `Msg _ | `Timeout -> ()
          done);
      recover = None;
    };
  Runtime.run world;
  fun () ->
    ignore (Runtime.create_guardian world ~at:0 ~def_name:(name "client") ~args:[]);
    Runtime.run world
