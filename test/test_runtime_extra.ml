(* Further runtime semantics: self-destruction, tokens as capabilities,
   partitions, buffer overflow failures, primordial ping, tracing. *)

open Dcp_wire
module Runtime = Dcp_core.Runtime
module Primordial = Dcp_core.Primordial
module Message = Dcp_core.Message
module Port = Dcp_core.Port
module Trace = Dcp_sim.Trace
module Clock = Dcp_sim.Clock
module Topology = Dcp_net.Topology
module Network = Dcp_net.Network
module Link = Dcp_net.Link

let make_world ?(n = 2) ?(link = Link.perfect) ?config () =
  Runtime.create_world ~seed:43 ~topology:(Topology.full_mesh ~n link) ?config ()

(* The tests that read a trace opt in to one. *)
let traced = { Runtime.default_config with trace = true }

let fresh_driver_name =
  let i = ref 0 in
  fun () ->
    incr i;
    Printf.sprintf "extra_driver_%d" !i

let driver world ~at body =
  let name = fresh_driver_name () in
  let def =
    { Runtime.def_name = name; provides = []; init = (fun ctx _ -> body ctx); recover = None }
  in
  Runtime.register_def world def;
  ignore (Runtime.create_guardian world ~at ~def_name:name ~args:[])

(* ---- self-destruct ---- *)

let test_self_destruct () =
  let world = make_world () in
  let stopped_after = ref false in
  let ephemeral_def =
    {
      Runtime.def_name = "ephemeral";
      provides = [ ([ Vtype.signature "poke" [] ], 8) ];
      init =
        (fun ctx _ ->
          match Runtime.receive ctx [ Runtime.port ctx 0 ] with
          | `Msg _ ->
              Runtime.self_destruct ctx;
              (* execution continues until the next suspension point *)
              stopped_after := true;
              (match Runtime.receive ctx ~timeout:(Clock.s 10) [ Runtime.port ctx 0 ] with
              | `Msg _ | `Timeout -> Alcotest.fail "dead process resumed")
          | `Timeout -> ());
      recover = None;
    }
  in
  Runtime.register_def world ephemeral_def;
  let g = Runtime.create_guardian world ~at:0 ~def_name:"ephemeral" ~args:[] in
  let port0 = List.hd (Runtime.guardian_ports g) in
  let failure_seen = ref false in
  driver world ~at:1 (fun ctx ->
      Runtime.send ctx ~to_:port0 "poke" [];
      Runtime.sleep ctx (Clock.ms 10);
      (* second poke: the guardian is gone, so failure(...) comes back *)
      let reply = Runtime.new_port ctx [ Vtype.wildcard ] in
      Runtime.send ctx ~to_:port0 ~reply_to:(Port.name reply) "poke" [];
      match Runtime.receive ctx ~timeout:(Clock.ms 500) [ reply ] with
      | `Msg (_, msg) -> failure_seen := Message.is_failure msg
      | `Timeout -> ());
  Runtime.run_for world (Clock.s 2);
  Alcotest.(check bool) "guardian is dead" false (Runtime.guardian_alive g);
  Alcotest.(check bool) "code after self_destruct still ran" true !stopped_after;
  Alcotest.(check bool) "second poke bounced" true !failure_seen

(* ---- tokens through the runtime ---- *)

let test_tokens_across_guardians () =
  let world = make_world () in
  let issued = ref None and owner_view = ref None and thief_view = ref (Some 0) in
  let issuer_def =
    {
      Runtime.def_name = "issuer";
      provides = [ ([ Vtype.wildcard ], 8) ];
      init =
        (fun ctx _ ->
          let token = Runtime.seal_token ctx ~obj:4242 in
          issued := Some token;
          (* a token travels through a message and comes back *)
          match Runtime.receive ctx [ Runtime.port ctx 0 ] with
          | `Msg (_, { Message.args = [ Value.Tokenv returned ]; _ }) ->
              owner_view := Runtime.unseal_token ctx returned
          | `Msg _ | `Timeout -> ());
      recover = None;
    }
  in
  Runtime.register_def world issuer_def;
  let g = Runtime.create_guardian world ~at:0 ~def_name:"issuer" ~args:[] in
  let issuer_port = List.hd (Runtime.guardian_ports g) in
  Runtime.run_for world (Clock.ms 1);
  driver world ~at:1 (fun ctx ->
      match !issued with
      | None -> Alcotest.fail "no token issued"
      | Some token ->
          (* the holder cannot unseal it *)
          thief_view := Runtime.unseal_token ctx token;
          Runtime.send ctx ~to_:issuer_port "redeem" [ Value.token token ]);
  Runtime.run_for world (Clock.s 1);
  Alcotest.(check (option int)) "owner recovers the object id" (Some 4242) !owner_view;
  Alcotest.(check (option int)) "non-owner cannot" None !thief_view

(* ---- partitions at runtime level ---- *)

let test_partition_then_heal () =
  let world = make_world ~link:Link.lan () in
  let echo_def =
    {
      Runtime.def_name = "p_echo";
      provides = [ ([ Vtype.wildcard ], 16) ];
      init =
        (fun ctx _ ->
          let rec loop () =
            (match Runtime.receive ctx [ Runtime.port ctx 0 ] with
            | `Msg (_, msg) -> (
                match msg.Message.reply_to with
                | Some reply -> Runtime.send ctx ~to_:reply "pong" []
                | None -> ())
            | `Timeout -> ());
            loop ()
          in
          loop ());
      recover = None;
    }
  in
  Runtime.register_def world echo_def;
  let g = Runtime.create_guardian world ~at:1 ~def_name:"p_echo" ~args:[] in
  let echo_port = List.hd (Runtime.guardian_ports g) in
  let during = ref "" and after = ref "" in
  driver world ~at:0 (fun ctx ->
      let ask () =
        let reply = Runtime.new_port ctx [ Vtype.wildcard ] in
        Runtime.send ctx ~to_:echo_port ~reply_to:(Port.name reply) "ping" [];
        let outcome =
          match Runtime.receive ctx ~timeout:(Clock.ms 300) [ reply ] with
          | `Msg (_, msg) -> msg.Message.command
          | `Timeout -> "timeout"
        in
        Runtime.remove_port ctx reply;
        outcome
      in
      Network.partition (Runtime.network world) [ [ 0 ]; [ 1 ] ];
      during := ask ();
      Network.heal (Runtime.network world);
      after := ask ());
  Runtime.run_for world (Clock.s 2);
  Alcotest.(check string) "partitioned: silence" "timeout" !during;
  Alcotest.(check string) "healed: answers" "pong" !after

(* ---- port buffer overflow generates failures ---- *)

let test_port_overflow_failure () =
  let world = make_world () in
  (* a guardian that never receives: its 2-slot buffer fills instantly *)
  let lazy_def =
    {
      Runtime.def_name = "lazybones";
      provides = [ ([ Vtype.wildcard ], 2) ];
      init = (fun ctx _ -> Runtime.sleep ctx (Clock.s 100));
      recover = None;
    }
  in
  Runtime.register_def world lazy_def;
  let g = Runtime.create_guardian world ~at:1 ~def_name:"lazybones" ~args:[] in
  let port0 = List.hd (Runtime.guardian_ports g) in
  let failures = ref 0 in
  driver world ~at:0 (fun ctx ->
      let reply = Runtime.new_port ctx ~capacity:16 [ Vtype.wildcard ] in
      for i = 1 to 5 do
        Runtime.send ctx ~to_:port0 ~reply_to:(Port.name reply) "spam" [ Value.int i ]
      done;
      let rec drain () =
        match Runtime.receive ctx ~timeout:(Clock.ms 300) [ reply ] with
        | `Msg (_, msg) ->
            if Message.is_failure msg then incr failures;
            drain ()
        | `Timeout -> ()
      in
      drain ());
  Runtime.run_for world (Clock.s 2);
  Alcotest.(check int) "three of five bounced" 3 !failures

(* ---- primordial ping ---- *)

let test_primordial_ping () =
  let world = make_world () in
  Primordial.install world;
  let got = ref "" in
  driver world ~at:0 (fun ctx ->
      let target = Primordial.port_of world 1 in
      let reply = Runtime.new_port ctx [ Vtype.wildcard ] in
      Runtime.send ctx ~to_:target ~reply_to:(Port.name reply) "ping" [];
      match Runtime.receive ctx ~timeout:(Clock.ms 500) [ reply ] with
      | `Msg (_, msg) -> got := msg.Message.command
      | `Timeout -> got := "timeout");
  Runtime.run_for world (Clock.s 1);
  Alcotest.(check string) "pong" "pong" !got

(* ---- the trace records the story ---- *)

let test_trace_has_send_and_discard () =
  let world = make_world ~config:traced () in
  driver world ~at:0 (fun ctx ->
      let bogus = Port_name.make ~node:1 ~guardian:12345 ~index:0 ~uid:54321 in
      Runtime.send ctx ~to_:bogus "into_the_void" []);
  Runtime.run_for world (Clock.s 1);
  let trace = Runtime.trace world in
  Alcotest.(check bool) "send recorded" true (Trace.find trace ~category:"send" <> []);
  Alcotest.(check bool) "discard recorded" true (Trace.find trace ~category:"discard" <> [])

(* A send is traced as its encoded body and rendered on read; the text
   must be what formatting the message at send time gave. *)
let test_trace_send_detail_every_constructor () =
  let world = make_world ~config:traced () in
  Transmit.register (Runtime.registry world) ~type_name:"celsius" ~external_rep:Vtype.Treal;
  let expected = ref "" in
  driver world ~at:0 (fun ctx ->
      let g = Runtime.ctx_guardian ctx in
      let here = Port.name (Runtime.new_port ctx [ Vtype.wildcard ]) in
      let reply = Port.name (Runtime.new_port ctx [ Vtype.wildcard ]) in
      let args =
        [
          Value.Unit;
          Value.Bool false;
          Value.int (-42);
          Value.real 2.5;
          Value.real (-0.0);
          Value.real 1e-300;
          Value.str "quote \" and\nnewline\x00";
          Value.token (Runtime.seal_token ctx ~obj:7);
          Value.Named ("celsius", Value.real 21.5);
          Value.record
            [
              ("xs", Value.list [ Value.int 1; Value.str "a"; Value.list [] ]);
              ("o", Value.option (Some (Value.Tuple [ Value.Bool true; Value.option None ])));
            ];
          Value.port here;
        ]
      in
      let msg = Message.make ~reply_to:reply ~sent_at:(Runtime.ctx_now ctx) "every" args in
      expected :=
        Format.asprintf "%s#%d -> %a: %a" (Runtime.guardian_def_name g) (Runtime.guardian_id g)
          Port_name.pp here Message.pp msg;
      Runtime.send ctx ~to_:here ~reply_to:reply "every" args);
  Runtime.run_for world (Clock.s 1);
  match Trace.find (Runtime.trace world) ~category:"send" with
  | [ e ] -> Alcotest.(check string) "rendered detail" !expected e.Trace.detail
  | events -> Alcotest.failf "expected one send event, got %d" (List.length events)

(* A message that fails to encode raises at the sender and leaves no send
   event behind. *)
let test_send_encode_failure_not_traced () =
  let config = { Runtime.default_config with codec = Codec.config_1979; trace = true } in
  let world =
    Runtime.create_world ~seed:43 ~topology:(Topology.full_mesh ~n:2 Link.perfect) ~config ()
  in
  let raised = ref false in
  driver world ~at:0 (fun ctx ->
      let target = Port.name (Runtime.new_port ctx [ Vtype.wildcard ]) in
      (try Runtime.send ctx ~to_:target "big" [ Value.int (1 lsl 40) ]
       with Runtime.Send_failed _ -> raised := true);
      Runtime.send ctx ~to_:target "small" [ Value.int 1 ]);
  Runtime.run_for world (Clock.s 1);
  Alcotest.(check bool) "Send_failed raised" true !raised;
  match Trace.find (Runtime.trace world) ~category:"send" with
  | [ e ] ->
      Alcotest.(check bool) "only the good send traced" true
        (String.ends_with ~suffix:": small(1)" e.Trace.detail)
  | events -> Alcotest.failf "expected one send event, got %d" (List.length events)

(* ---- tracing is opt-in ---- *)

(* Sends, a discard with its failure message, a crash and a restart with
   a recovery, on a world made with [config]. *)
let lifecycle_world config =
  let world = make_world ~config () in
  let rec echo ctx =
    (match Runtime.receive ctx [ Runtime.port ctx 0 ] with
    | `Msg (_, msg) ->
        Option.iter (fun to_ -> Runtime.send ctx ~to_ "pong" []) msg.Message.reply_to
    | `Timeout -> ());
    echo ctx
  in
  Runtime.register_def world
    {
      Runtime.def_name = "twin_echo";
      provides = [ ([ Vtype.wildcard ], 8) ];
      init = (fun ctx _ -> echo ctx);
      recover = Some echo;
    };
  let echo = Runtime.create_guardian world ~at:1 ~def_name:"twin_echo" ~args:[] in
  let echo_port = List.hd (Runtime.guardian_ports echo) in
  driver world ~at:0 (fun ctx ->
      let reply = Runtime.new_port ctx [ Vtype.wildcard ] in
      let bogus = Port_name.make ~node:1 ~guardian:12345 ~index:0 ~uid:54321 in
      let ping to_ =
        Runtime.send ctx ~to_ ~reply_to:(Port.name reply) "ping" [ Value.int 1 ];
        ignore (Runtime.receive ctx ~timeout:(Clock.ms 50) [ reply ])
      in
      ping echo_port;
      ping bogus;
      Runtime.sleep ctx (Clock.ms 200);
      ping echo_port);
  Runtime.schedule_at world ~node:1 ~at:(Clock.ms 100) (fun () -> Runtime.crash_node world 1);
  Runtime.schedule_at world ~node:1 ~at:(Clock.ms 150) (fun () -> Runtime.restart_node world 1);
  Runtime.run_for world (Clock.s 1);
  world

let test_untraced_world_keeps_nothing () =
  let world = lifecycle_world Runtime.default_config in
  let twin_world = lifecycle_world traced in
  let t = Runtime.trace world and twin = Runtime.trace twin_world in
  Alcotest.(check (list string)) "the twin traced every kind of event"
    [ "crash"; "discard"; "guardian"; "restart"; "send" ]
    (List.sort_uniq String.compare (List.map (fun e -> e.Trace.category) (Trace.events twin)));
  Alcotest.(check int) "untraced size" 0 (Trace.size t);
  Alcotest.(check bool) "untraced events" true (Trace.events t = []);
  Alcotest.(check int) "same total as the traced twin" (Trace.total twin) (Trace.total t);
  Alcotest.(check int) "same events executed" (Runtime.events_executed twin_world)
    (Runtime.events_executed world);
  let called = ref false in
  Trace.recordf t ~at:0 ~category:"note" "%a" (fun _ () -> called := true) ();
  Alcotest.(check bool) "a %a printer is never called" false !called;
  Alcotest.(check int) "the record is counted" (Trace.total twin + 1) (Trace.total t)

(* ---- messages between processes of one guardian ---- *)

let test_intra_guardian_ports () =
  (* Two processes of one guardian talk through the guardian's own port:
     allowed and cheap (local path). *)
  let world = make_world () in
  let heard = ref false in
  let dual_def =
    {
      Runtime.def_name = "dual";
      provides = [ ([ Vtype.wildcard ], 8) ];
      init =
        (fun ctx _ ->
          ignore
            (Runtime.spawn ctx ~name:"speaker" (fun () ->
                 Runtime.send ctx ~to_:(Port.name (Runtime.port ctx 0)) "hello" []));
          match Runtime.receive ctx ~timeout:(Clock.s 1) [ Runtime.port ctx 0 ] with
          | `Msg (_, { Message.command = "hello"; _ }) -> heard := true
          | `Msg _ | `Timeout -> ());
      recover = None;
    }
  in
  Runtime.register_def world dual_def;
  ignore (Runtime.create_guardian world ~at:0 ~def_name:"dual" ~args:[]);
  Runtime.run_for world (Clock.s 2);
  Alcotest.(check bool) "self-send via port" true !heard

let test_receive_foreign_port_rejected () =
  let world = make_world () in
  Primordial.install world;
  let raised = ref false in
  (* Try to receive on another guardian's port object: must be refused. *)
  let snoop_def =
    {
      Runtime.def_name = "snoop";
      provides = [ ([ Vtype.wildcard ], 8) ];
      init = (fun ctx _ -> Runtime.sleep ctx (Clock.s 10) |> fun () -> ignore ctx);
      recover = None;
    }
  in
  Runtime.register_def world snoop_def;
  let victim = Runtime.create_guardian world ~at:0 ~def_name:"snoop" ~args:[] in
  ignore victim;
  (* We cannot even obtain another guardian's Port.t through the public
     API — only its Port_name.  The runtime enforces the rest; simulate an
     attempt using our own ctx with a foreign-looking check: receive with a
     port we own works, and this test documents that the API surface makes
     cross-guardian receive inexpressible (names, not port objects, travel).
     What remains checkable is that receive on our own ports succeeds: *)
  driver world ~at:0 (fun ctx ->
      let mine = Runtime.new_port ctx [ Vtype.wildcard ] in
      match Runtime.receive ctx ~timeout:(Clock.ms 10) [ mine ] with
      | `Timeout -> raised := true (* expected: nothing arrives; no exception *)
      | `Msg _ -> ());
  Runtime.run_for world (Clock.s 1);
  Alcotest.(check bool) "own-port receive fine; foreign Port.t unobtainable" true !raised

(* ---- primordial guardian survives crashes ---- *)

let test_primordial_recovers () =
  let world = make_world () in
  Primordial.install world;
  Runtime.register_def world
    {
      Runtime.def_name = "late_arrival";
      provides = [];
      init = (fun _ _ -> ());
      recover = None;
    };
  Runtime.run_for world (Clock.ms 1);
  Runtime.crash_node world 1;
  Runtime.restart_node world 1;
  (* The primordial guardian recovered: remote creation still works. *)
  let outcome = ref None in
  driver world ~at:0 (fun ctx ->
      outcome :=
        Some
          (Primordial.request_create ctx ~at:1 ~def_name:"late_arrival" ~args:[]
             ~timeout:(Clock.s 1)));
  Runtime.run_for world (Clock.s 2);
  match !outcome with
  | Some (`Created _) -> ()
  | _ -> Alcotest.fail "primordial did not recover"

(* ---- a send from a self-destructed guardian is dropped quietly ---- *)

let test_send_after_self_destruct_dropped () =
  let world = make_world () in
  let sent = ref false in
  let kamikaze =
    {
      Runtime.def_name = "kamikaze";
      provides = [];
      init =
        (fun ctx _ ->
          Runtime.self_destruct ctx;
          (* still running until the next suspension point: this send must
             be swallowed, not crash the runtime *)
          let bogus = Port_name.make ~node:0 ~guardian:1 ~index:0 ~uid:1 in
          Runtime.send ctx ~to_:bogus "last_words" [];
          sent := true);
      recover = None;
    }
  in
  Runtime.register_def world kamikaze;
  ignore (Runtime.create_guardian world ~at:0 ~def_name:"kamikaze" ~args:[]);
  Runtime.run_for world (Clock.s 1);
  Alcotest.(check bool) "code after the dead send ran" true !sent;
  let counters = Dcp_sim.Metrics.counters (Runtime.metrics world) in
  Alcotest.(check (option int)) "counted as dead-guardian send" (Some 1)
    (List.assoc_opt "send.dead_guardian" counters)

let tests =
  [
    Alcotest.test_case "self destruct" `Quick test_self_destruct;
    Alcotest.test_case "primordial recovers" `Quick test_primordial_recovers;
    Alcotest.test_case "dead guardian send dropped" `Quick test_send_after_self_destruct_dropped;
    Alcotest.test_case "tokens across guardians" `Quick test_tokens_across_guardians;
    Alcotest.test_case "partition then heal" `Quick test_partition_then_heal;
    Alcotest.test_case "port overflow failure" `Quick test_port_overflow_failure;
    Alcotest.test_case "primordial ping" `Quick test_primordial_ping;
    Alcotest.test_case "trace send+discard" `Quick test_trace_has_send_and_discard;
    Alcotest.test_case "trace send detail, every constructor" `Quick
      test_trace_send_detail_every_constructor;
    Alcotest.test_case "send that fails to encode not traced" `Quick
      test_send_encode_failure_not_traced;
    Alcotest.test_case "untraced world keeps nothing, counts the same" `Quick
      test_untraced_world_keeps_nothing;
    Alcotest.test_case "intra-guardian port messaging" `Quick test_intra_guardian_ports;
    Alcotest.test_case "foreign ports unobtainable" `Quick test_receive_foreign_port_rejected;
  ]
