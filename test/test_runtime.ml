(* End-to-end tests of the guardian runtime: send/receive semantics,
   failure messages, guardian creation rules, crash and recovery. *)

open Dcp_wire
module Runtime = Dcp_core.Runtime
module Primordial = Dcp_core.Primordial
module Port = Dcp_core.Port
module Message = Dcp_core.Message
module Process = Dcp_core.Process
module Clock = Dcp_sim.Clock
module Topology = Dcp_net.Topology
module Link = Dcp_net.Link

let echo_port_type =
  [
    Vtype.signature "echo" [ Vtype.Tstr ] ~replies:[ Vtype.reply "echoed" [ Vtype.Tstr ] ];
    Vtype.signature "stop" [];
  ]

(* A guardian that echoes strings back to the reply port. *)
let echo_def : Runtime.def =
  {
    Runtime.def_name = "echo";
    provides = [ (echo_port_type, 16) ];
    init =
      (fun ctx _args ->
        let rec loop () =
          match Runtime.receive ctx [ Runtime.port ctx 0 ] with
          | `Timeout -> loop ()
          | `Msg (_, msg) -> (
              match (msg.Message.command, msg.Message.args, msg.Message.reply_to) with
              | "echo", [ Value.Str s ], Some reply ->
                  Runtime.send ctx ~to_:reply "echoed" [ Value.str s ];
                  loop ()
              | "stop", _, _ -> ()
              | _ -> loop ())
        in
        loop ());
    recover = None;
  }

let make_world ?(n = 2) ?(link = Link.perfect) ?config () =
  let topology = Topology.full_mesh ~n link in
  let world = Runtime.create_world ~seed:42 ~topology ?config () in
  world

(* Run a driver body inside a fresh single-port guardian at [at]; the test
   observes results through the [result] ref. *)
let driver_def body : Runtime.def =
  {
    Runtime.def_name = "driver";
    provides = [];
    init = (fun ctx _args -> body ctx);
    recover = None;
  }

let with_driver world ~at body =
  Runtime.register_def world (driver_def body);
  ignore (Runtime.create_guardian world ~at ~def_name:"driver" ~args:[])

let test_echo_roundtrip () =
  let world = make_world () in
  Runtime.register_def world echo_def;
  let echo = Runtime.create_guardian world ~at:0 ~def_name:"echo" ~args:[] in
  let echo_port = List.hd (Runtime.guardian_ports echo) in
  let result = ref None in
  with_driver world ~at:1 (fun ctx ->
      let reply = Runtime.new_port ctx [ Vtype.signature "echoed" [ Vtype.Tstr ] ] in
      Runtime.send ctx ~to_:echo_port ~reply_to:(Port.name reply) "echo"
        [ Value.str "hello" ];
      match Runtime.receive ctx ~timeout:(Clock.s 1) [ reply ] with
      | `Msg (_, msg) -> result := Some msg.Message.args
      | `Timeout -> result := None);
  Runtime.run_for world (Clock.s 2);
  Alcotest.(check (option (list string)))
    "echoed back"
    (Some [ "\"hello\"" ])
    (Option.map (List.map Value.to_string) !result)

let test_unknown_port_failure () =
  let world = make_world () in
  let got = ref None in
  with_driver world ~at:0 (fun ctx ->
      let reply = Runtime.new_port ctx [ Vtype.signature "never" [] ] in
      let bogus = Port_name.make ~node:1 ~guardian:999 ~index:0 ~uid:12345 in
      Runtime.send ctx ~to_:bogus ~reply_to:(Port.name reply) "anything" [];
      match Runtime.receive ctx ~timeout:(Clock.s 1) [ reply ] with
      | `Msg (_, msg) -> got := Some msg.Message.command
      | `Timeout -> got := Some "timeout");
  Runtime.run_for world (Clock.s 2);
  Alcotest.(check (option string)) "failure message" (Some "failure") !got

let test_receive_timeout () =
  let world = make_world () in
  let got = ref None in
  with_driver world ~at:0 (fun ctx ->
      let p = Runtime.new_port ctx [ Vtype.signature "never" [] ] in
      match Runtime.receive ctx ~timeout:(Clock.ms 50) [ p ] with
      | `Msg _ -> got := Some "msg"
      | `Timeout -> got := Some "timeout");
  Runtime.run_for world (Clock.s 1);
  Alcotest.(check (option string)) "timed out" (Some "timeout") !got;
  Alcotest.(check bool)
    "timeout happened at ~50ms" true
    (Runtime.now world >= Clock.ms 50)

let test_primordial_remote_create () =
  let world = make_world () in
  Primordial.install world;
  Runtime.register_def world echo_def;
  let outcome = ref None in
  with_driver world ~at:0 (fun ctx ->
      outcome :=
        Some
          (Primordial.request_create ctx ~at:1 ~def_name:"echo" ~args:[]
             ~timeout:(Clock.s 1)));
  Runtime.run_for world (Clock.s 2);
  (match !outcome with
  | Some (`Created [ port ]) ->
      Alcotest.(check int) "created at node 1" 1 port.Port_name.node
  | Some (`Created _) -> Alcotest.fail "unexpected port count"
  | Some (`Refused r) -> Alcotest.fail ("refused: " ^ r)
  | Some `Timeout -> Alcotest.fail "timed out"
  | None -> Alcotest.fail "driver did not run");
  (* The new echo guardian must actually live at node 1. *)
  let echoes = Runtime.find_guardians world ~def_name:"echo" in
  Alcotest.(check (list int)) "guardian node" [ 1 ] (List.map Runtime.guardian_node echoes)

let test_primordial_refuses_unknown_def () =
  let world = make_world () in
  Primordial.install world;
  let outcome = ref None in
  with_driver world ~at:0 (fun ctx ->
      outcome :=
        Some
          (Primordial.request_create ctx ~at:1 ~def_name:"no_such_def" ~args:[]
             ~timeout:(Clock.s 1)));
  Runtime.run_for world (Clock.s 2);
  match !outcome with
  | Some (`Refused _) -> ()
  | _ -> Alcotest.fail "expected a refusal"

let test_crash_kills_and_failure_generated () =
  let world = make_world () in
  Runtime.register_def world echo_def;
  let echo = Runtime.create_guardian world ~at:1 ~def_name:"echo" ~args:[] in
  let echo_port = List.hd (Runtime.guardian_ports echo) in
  Runtime.run_for world (Clock.ms 1);
  Runtime.crash_node world 1;
  let got = ref None in
  with_driver world ~at:0 (fun ctx ->
      let reply = Runtime.new_port ctx [ Vtype.signature "echoed" [ Vtype.Tstr ] ] in
      Runtime.send ctx ~to_:echo_port ~reply_to:(Port.name reply) "echo" [ Value.str "x" ];
      match Runtime.receive ctx ~timeout:(Clock.ms 200) [ reply ] with
      | `Msg (_, msg) -> got := Some msg.Message.command
      | `Timeout -> got := Some "timeout");
  Runtime.run_for world (Clock.s 1);
  (* Node down: message vanishes, no failure message can come back (the
     whole node is unreachable), so the client times out — exactly the
     uncertainty §3.5 describes. *)
  Alcotest.(check (option string)) "client times out" (Some "timeout") !got;
  Alcotest.(check bool) "guardian dead" false (Runtime.guardian_alive echo)

let test_dead_guardian_failure_message () =
  let world = make_world () in
  Runtime.register_def world echo_def;
  let echo = Runtime.create_guardian world ~at:1 ~def_name:"echo" ~args:[] in
  let echo_port = List.hd (Runtime.guardian_ports echo) in
  Runtime.run_for world (Clock.ms 1);
  (* Crash and restart: echo has no recover procedure, so the node comes
     back but the guardian stays dead; now sends get failure replies. *)
  Runtime.crash_node world 1;
  Runtime.restart_node world 1;
  let got = ref None in
  with_driver world ~at:0 (fun ctx ->
      let reply = Runtime.new_port ctx [ Vtype.signature "echoed" [ Vtype.Tstr ] ] in
      Runtime.send ctx ~to_:echo_port ~reply_to:(Port.name reply) "echo" [ Value.str "x" ];
      match Runtime.receive ctx ~timeout:(Clock.ms 500) [ reply ] with
      | `Msg (_, msg) -> got := Some (msg.Message.command, Value.to_string (List.hd msg.Message.args))
      | `Timeout -> got := None);
  Runtime.run_for world (Clock.s 1);
  let contains_substring s sub =
    let n = String.length s and m = String.length sub in
    let rec scan i = i + m <= n && (String.equal (String.sub s i m) sub || scan (i + 1)) in
    scan 0
  in
  match !got with
  | Some ("failure", reason) ->
      Alcotest.(check bool) "mentions guardian" true (contains_substring reason "guardian")
  | _ -> Alcotest.fail "expected failure(guardian does not exist)"

let test_local_creation_rule () =
  let world = make_world () in
  Runtime.register_def world echo_def;
  let where = ref None in
  with_driver world ~at:1 (fun ctx ->
      let g = Runtime.ctx_create_guardian ctx ~def_name:"echo" ~args:[] in
      where := Some (Runtime.guardian_node g));
  Runtime.run_for world (Clock.s 1);
  Alcotest.(check (option int)) "created at creator's node" (Some 1) !where

let test_port_type_checking () =
  let world = make_world () in
  Runtime.register_def world echo_def;
  let echo = Runtime.create_guardian world ~at:1 ~def_name:"echo" ~args:[] in
  let echo_port = List.hd (Runtime.guardian_ports echo) in
  let got = ref None in
  with_driver world ~at:0 (fun ctx ->
      let reply = Runtime.new_port ctx [ Vtype.signature "echoed" [ Vtype.Tstr ] ] in
      (* Wrong argument type: int instead of string. *)
      Runtime.send ctx ~to_:echo_port ~reply_to:(Port.name reply) "echo" [ Value.int 3 ];
      match Runtime.receive ctx ~timeout:(Clock.ms 500) [ reply ] with
      | `Msg (_, msg) -> got := Some msg.Message.command
      | `Timeout -> got := None);
  Runtime.run_for world (Clock.s 1);
  Alcotest.(check (option string)) "rejected with failure" (Some "failure") !got

let test_sends_are_unordered_but_deliverable () =
  (* With a jittery link, messages can overtake each other; all arrive. *)
  let link = { Link.perfect with base_latency = Clock.ms 1; jitter = Clock.ms 5 } in
  let world = make_world ~link () in
  let received = ref [] in
  let sink_def : Runtime.def =
    {
      Runtime.def_name = "sink";
      provides = [ ([ Vtype.signature "item" [ Vtype.Tint ] ], 64) ];
      init =
        (fun ctx _args ->
          let rec loop () =
            match Runtime.receive ctx ~timeout:(Clock.s 1) [ Runtime.port ctx 0 ] with
            | `Msg (_, msg) ->
                received := Value.get_int (List.hd msg.Message.args) :: !received;
                loop ()
            | `Timeout -> ()
          in
          loop ());
      recover = None;
    }
  in
  Runtime.register_def world sink_def;
  let sink = Runtime.create_guardian world ~at:1 ~def_name:"sink" ~args:[] in
  let sink_port = List.hd (Runtime.guardian_ports sink) in
  with_driver world ~at:0 (fun ctx ->
      for i = 1 to 20 do
        Runtime.send ctx ~to_:sink_port "item" [ Value.int i ]
      done);
  Runtime.run_for world (Clock.s 3);
  let got = List.sort Int.compare !received in
  Alcotest.(check (list int)) "all 20 arrived" (List.init 20 (fun i -> i + 1)) got

let test_encode_bounds_raise_at_sender () =
  let config = { Runtime.default_config with codec = Codec.config_1979 } in
  let world = make_world ~config () in
  Runtime.register_def world echo_def;
  let echo = Runtime.create_guardian world ~at:1 ~def_name:"echo" ~args:[] in
  let echo_port = List.hd (Runtime.guardian_ports echo) in
  let raised = ref false in
  let sink_def : Runtime.def =
    {
      Runtime.def_name = "bounds_driver";
      provides = [];
      init =
        (fun ctx _args ->
          match
            Runtime.send ctx ~to_:echo_port "echo_int" [ Value.int 99_999_999 ]
          with
          | () -> ()
          | exception Runtime.Send_failed _ -> raised := true
          | exception Codec.Codec_error _ -> raised := true);
      recover = None;
    }
  in
  Runtime.register_def world sink_def;
  ignore (Runtime.create_guardian world ~at:0 ~def_name:"bounds_driver" ~args:[]);
  Runtime.run_for world (Clock.s 1);
  Alcotest.(check bool) "24-bit bound enforced at sender" true !raised

(* A rejected message's failure reply is subject to the codec's bounds
   like any message.  One it cannot encode has no sender to raise
   [Send_failed] to: it is dropped and counted, and the world runs on. *)
let failure_counters ?reply_node ~link ~at command =
  let config = { Runtime.default_config with codec = Codec.config_1979 } in
  let world = make_world ~link ~config () in
  let ping_def : Runtime.def =
    {
      Runtime.def_name = "ping";
      provides = [ ([ Vtype.signature "ping" [] ], 4) ];
      init = (fun _ _ -> ());
      recover = None;
    }
  in
  Runtime.register_def world ping_def;
  let ping = List.hd (Runtime.guardian_ports (Runtime.create_guardian world ~at:1 ~def_name:"ping" ~args:[])) in
  with_driver world ~at:0 (fun ctx ->
      let reply = Port.name (Runtime.new_port ctx [ Vtype.wildcard ]) in
      let reply =
        match reply_node with None -> reply | Some node -> { reply with Port_name.node }
      in
      Runtime.sleep ctx at;
      Runtime.send ctx ~to_:ping ~reply_to:reply command []);
  Runtime.run_for world (Clock.s 1);
  let counter name =
    Option.value (List.assoc_opt name (Dcp_sim.Metrics.counters (Runtime.metrics world))) ~default:0
  in
  (counter "deliver.discarded", counter "failure.sent", counter "failure.unencodable",
   counter "failure.unroutable")

let three (a, b, c, _) = (a, b, c)

(* A failure reply to a port on a node outside the world is dropped and
   counted, and the world runs on. *)
let test_failure_to_unknown_node_dropped () =
  let discarded, sent, _, unroutable =
    failure_counters ~reply_node:7 ~link:Link.perfect ~at:0 "pong"
  in
  Alcotest.(check (triple int int int))
    "discarded, no failure sent, one unroutable" (1, 0, 1) (discarded, sent, unroutable)

let test_failure_past_int_bits_sent () =
  (* sent at 1 ms, rejected past 8.39 ms: the failure's send time exceeds
     24 bits, which bound transmitted values, not the send time *)
  Alcotest.(check (triple int int int))
    "discarded, failure sent, none unencodable" (1, 1, 0)
    (three (failure_counters ~link:Link.wan ~at:(Clock.ms 1) "pong"))

(* A 1979 world's clock passes 2^23 ns (8.39 ms) early; its messages go on
   being delivered after that. *)
let test_1979_world_delivers_late () =
  let config = { Runtime.default_config with codec = Codec.config_1979 } in
  let world = make_world ~config () in
  Runtime.register_def world echo_def;
  let echo = Runtime.create_guardian world ~at:1 ~def_name:"echo" ~args:[] in
  let echo_port = List.hd (Runtime.guardian_ports echo) in
  let got = ref None in
  with_driver world ~at:0 (fun ctx ->
      let reply = Runtime.new_port ctx [ Vtype.wildcard ] in
      Runtime.sleep ctx (Clock.ms 20);
      Runtime.send ctx ~to_:echo_port ~reply_to:(Port.name reply) "echo" [ Value.str "late" ];
      match Runtime.receive ctx ~timeout:(Clock.s 1) [ reply ] with
      | `Msg (_, msg) -> got := Some (msg.Message.command, msg.Message.args, msg.Message.sent_at)
      | `Timeout -> ());
  Runtime.run_for world (Clock.s 2);
  match !got with
  | Some (command, args, sent_at) ->
      Alcotest.(check string) "the echo's reply" "echoed" command;
      Alcotest.(check bool) "its argument" true (List.equal Value.equal [ Value.str "late" ] args);
      Alcotest.(check bool) "sent past 20 ms" true (sent_at >= Clock.ms 20)
  | None -> Alcotest.fail "no reply to a message sent at 20 ms"

let test_failure_past_max_string_dropped () =
  (* the reason quotes the command, which fits max_string alone *)
  Alcotest.(check (triple int int int))
    "discarded, no failure sent, one unencodable" (1, 0, 1)
    (three (failure_counters ~link:Link.perfect ~at:0 (String.make 4080 'c')))

(* Two guardians that answer each other over a zero-latency link never
   let virtual time move.  The engine reports the loop instead of spinning
   in it for ever.  With two shards run on domains, the loop runs on the
   worker domain of shard 1 (nodes 1 and 3), and the round re-raises it. *)
let test_zero_latency_livelock_raises ~shards () =
  let world =
    Runtime.create_world ~seed:42
      ~topology:(Topology.full_mesh ~n:(2 * shards) Link.perfect)
      ~shards ~parallel:(shards > 1) ()
  in
  let volley_def : Runtime.def =
    {
      Runtime.def_name = "volley";
      provides = [ ([ Vtype.wildcard ], 8) ];
      init =
        (fun ctx args ->
          let own = Port.name (Runtime.port ctx 0) in
          let hit to_ = Runtime.send ctx ~to_ ~reply_to:own "ball" [] in
          (match args with [ Value.Portv peer ] -> hit peer | _ -> ());
          let rec loop () =
            (match Runtime.receive ctx [ Runtime.port ctx 0 ] with
            | `Msg (_, { Message.reply_to = Some peer; _ }) -> hit peer
            | `Msg _ | `Timeout -> ());
            loop ()
          in
          loop ());
      recover = None;
    }
  in
  Runtime.register_def world volley_def;
  let far = Runtime.create_guardian world ~at:((2 * shards) - 1) ~def_name:"volley" ~args:[] in
  let serve = [ Value.port (List.hd (Runtime.guardian_ports far)) ] in
  ignore (Runtime.create_guardian world ~at:(shards - 1) ~def_name:"volley" ~args:serve);
  match Runtime.run_for world (Clock.s 1) with
  | () -> Alcotest.fail "run_for returned from a livelock"
  | exception Dcp_sim.Engine.Livelock { at; events } ->
      Alcotest.(check int) "at the instant of the serve" 0 at;
      Alcotest.(check bool) "only past a million events" true (events > 1_000_000)

let test_recovery_restores_store () =
  let world = make_world () in
  let observed = ref None in
  let keeper_def : Runtime.def =
    {
      Runtime.def_name = "keeper";
      provides = [ ([ Vtype.signature "put" [ Vtype.Tstr; Vtype.Tstr ] ], 16) ];
      init =
        (fun ctx _args ->
          let rec loop () =
            match Runtime.receive ctx [ Runtime.port ctx 0 ] with
            | `Msg (_, { Message.command = "put"; args = [ Value.Str k; Value.Str v ]; _ }) ->
                Dcp_stable.Store.set (Runtime.store ctx) ~key:k v;
                loop ()
            | _ -> loop ()
          in
          loop ());
      recover =
        Some (fun ctx -> observed := Dcp_stable.Store.get (Runtime.store ctx) ~key:"city");
    }
  in
  Runtime.register_def world keeper_def;
  let keeper = Runtime.create_guardian world ~at:1 ~def_name:"keeper" ~args:[] in
  let keeper_port = List.hd (Runtime.guardian_ports keeper) in
  with_driver world ~at:0 (fun ctx ->
      Runtime.send ctx ~to_:keeper_port "put" [ Value.str "city"; Value.str "cambridge" ]);
  Runtime.run_for world (Clock.ms 10);
  Runtime.crash_node world 1;
  Runtime.restart_node world 1;
  Runtime.run_for world (Clock.ms 10);
  Alcotest.(check (option string))
    "logged value survives the crash" (Some "cambridge") !observed;
  Alcotest.(check bool) "guardian recovered" true (Runtime.guardian_alive keeper)

let tests =
  [
    Alcotest.test_case "echo roundtrip across nodes" `Quick test_echo_roundtrip;
    Alcotest.test_case "failure(...) for unknown port" `Quick test_unknown_port_failure;
    Alcotest.test_case "receive timeout fires" `Quick test_receive_timeout;
    Alcotest.test_case "primordial creates remotely" `Quick test_primordial_remote_create;
    Alcotest.test_case "primordial refuses unknown defs" `Quick test_primordial_refuses_unknown_def;
    Alcotest.test_case "crashed node: silence, not failure" `Quick test_crash_kills_and_failure_generated;
    Alcotest.test_case "dead guardian: failure message" `Quick test_dead_guardian_failure_message;
    Alcotest.test_case "creation pinned to creator's node" `Quick test_local_creation_rule;
    Alcotest.test_case "port signatures enforced" `Quick test_port_type_checking;
    Alcotest.test_case "unordered delivery, none lost" `Quick test_sends_are_unordered_but_deliverable;
    Alcotest.test_case "integer bounds raise at sender" `Quick test_encode_bounds_raise_at_sender;
    Alcotest.test_case "failure past int_bits time sent" `Quick test_failure_past_int_bits_sent;
    Alcotest.test_case "1979 world delivers at 20 ms" `Quick test_1979_world_delivers_late;
    Alcotest.test_case "unencodable failure past max_string dropped" `Quick
      test_failure_past_max_string_dropped;
    Alcotest.test_case "recovery replays the stable store" `Quick test_recovery_restores_store;
    Alcotest.test_case "zero-latency ping-pong raises Livelock" `Quick
      (test_zero_latency_livelock_raises ~shards:1);
    Alcotest.test_case "zero-latency ping-pong on a worker domain raises" `Quick
      (test_zero_latency_livelock_raises ~shards:2);
    Alcotest.test_case "failure to a node outside the world dropped" `Quick
      test_failure_to_unknown_node_dropped;
  ]
