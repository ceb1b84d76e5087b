(* The sharded-runtime determinism contract, pinned.

   Three scenarios (bank, replica, register) under the harshest profile
   (wan+lossy+crash) at shard counts 1, 2 and 4, two seeds each.  The
   expected fingerprints are absolute: a fingerprint is a pure function of
   (seed, profile, horizon, workload, shards), so any drift — a changed
   RNG split order, a different outbox injection order, a placement tweak —
   fails here with a string diff rather than surfacing as flaky chaos runs.

   One shard is the N = 1 case of the same scheme: ids come from the same
   per-shard mint and crashes from the same up-front plan at every N.

   On top of the absolute pins, two relative properties close the loop:
   running with [parallel:true] must reproduce the sequential fingerprint
   (domain execution is an implementation detail of an epoch), and
   building the same world twice in one process must agree, trace bytes
   included, at one shard and at two (no hidden global state). *)

open Dcp_wire
module Check = Dcp_check
module Scenario = Check.Scenario
module Scenarios = Check.Scenarios
module Clock = Dcp_sim.Clock
module Trace = Dcp_sim.Trace
module Runtime = Dcp_core.Runtime
module Rpc = Dcp_primitives.Rpc
module Ordered = Dcp_primitives.Ordered
module Topology = Dcp_net.Topology
module Link = Dcp_net.Link
module Network = Dcp_net.Network

let profile =
  match Check.Profile.find "wan+lossy+crash" with
  | Some p -> p
  | None -> Alcotest.fail "profile wan+lossy+crash missing"

(* Replica runs at the check-smoke sweep's reduced size (2 s horizon, 40
   writes over 100 replicas) to keep the matrix affordable; bank and
   register use their scenario defaults. *)
let execute name ~seed ~shards ~parallel =
  let scenario =
    match Scenarios.find name with
    | Some s -> s
    | None -> Alcotest.fail ("scenario missing: " ^ name)
  in
  let horizon, workload =
    if String.equal name "replica" then (Some (Clock.s 2), Some 40) else (None, None)
  in
  Scenario.execute scenario ~seed ~profile ?horizon ?workload ~shards ~parallel ()

(* (scenario, seed, shards, expected fingerprint) *)
let pinned =
  [
    ("bank", 5, 1, "ev=298 sent=210 lost=12 ok=30 to=0");
    ("bank", 5, 2, "ev=427 sent=211 lost=15 ok=30 to=0");
    ("bank", 5, 4, "ev=468 sent=197 lost=10 ok=30 to=0");
    ("bank", 11, 1, "ev=296 sent=210 lost=14 ok=30 to=0");
    ("bank", 11, 2, "ev=455 sent=228 lost=16 ok=30 to=0");
    ("bank", 11, 4, "ev=481 sent=202 lost=9 ok=30 to=0");
    ("replica", 5, 1, "ev=7519 sent=3654 lost=174 keys=39 conv=7250 sync=879843");
    ("replica", 5, 2, "ev=10853 sent=4299 lost=211 keys=40 conv=9000 sync=1062187");
    ("replica", 5, 4, "ev=17070 sent=7773 lost=367 keys=40 conv=7500 sync=1570615");
    ("replica", 11, 1, "ev=10197 sent=5381 lost=249 keys=40 conv=9750 sync=1288166");
    ("replica", 11, 2, "ev=12054 sent=5193 lost=231 keys=39 conv=8750 sync=1261859");
    ("replica", 11, 4, "ev=10997 sent=3598 lost=167 keys=39 conv=9500 sync=1019512");
    ("register", 5, 1, "ev=15749 sent=13093 lost=620 ok=38 unk=7 ne=3 conv=60000");
    ("register", 5, 2, "ev=22929 sent=12958 lost=652 ok=37 unk=6 ne=5 conv=60000");
    ("register", 5, 4, "ev=26648 sent=12942 lost=619 ok=33 unk=11 ne=4 conv=60000");
    ("register", 11, 1, "ev=15713 sent=13075 lost=631 ok=39 unk=8 ne=1 conv=60000");
    ("register", 11, 2, "ev=22973 sent=12945 lost=622 ok=33 unk=8 ne=7 conv=60000");
    ("register", 11, 4, "ev=26704 sent=12942 lost=597 ok=32 unk=11 ne=5 conv=60000");
  ]

let test_pinned (name, seed, shards, expected) () =
  let outcome = execute name ~seed ~shards ~parallel:false in
  Alcotest.(check string)
    (Printf.sprintf "%s seed=%d shards=%d fingerprint" name seed shards)
    expected outcome.Scenario.fingerprint;
  match outcome.Scenario.verdict with
  | Scenario.Pass -> ()
  | Scenario.Fail reason -> Alcotest.fail ("oracle failed: " ^ reason)

(* Domain-parallel execution is observationally identical to running the
   shards in order on one domain: same fingerprint, same verdict. *)
let test_parallel_matches name seed () =
  let seq = execute name ~seed ~shards:4 ~parallel:false in
  let par = execute name ~seed ~shards:4 ~parallel:true in
  Alcotest.(check string)
    (Printf.sprintf "%s seed=%d: parallel == sequential" name seed)
    seq.Scenario.fingerprint par.Scenario.fingerprint

(* One world as a function of its seed: a client on node 0 makes 40 WAN
   RPCs with generated request ids to a server on node 1, then opens an
   ordered channel to it.  Request and channel ids are encoded into the
   message bytes, so an id drawn from anything but the world itself would
   make a second build send different bytes (and finish at a different
   time) than the first.  Returns the rendered shard-0 trace (the client's
   sends), the network counters and the client's finish time. *)
let rpc_world ~seed ~shards =
  let world =
    Runtime.create_world ~seed ~topology:(Topology.full_mesh ~n:2 Link.wan) ~shards ()
  in
  let guardian name ~at ?(provides = []) init =
    Runtime.register_def world
      { Runtime.def_name = name; provides; init = (fun ctx _ -> init ctx); recover = None };
    Runtime.create_guardian world ~at ~def_name:name ~args:[]
  in
  let channel_port = ref None and finished = ref None in
  let server =
    guardian "echo_server" ~at:1 ~provides:[ ([ Vtype.wildcard ], 64) ] (fun ctx ->
        let receiver = Ordered.receiver ctx () in
        channel_port := Some (Ordered.receiver_port receiver);
        let rec drain () = match Ordered.recv receiver () with Some _ -> drain () | None -> () in
        ignore (Runtime.spawn ctx ~name:"drain" drain);
        let dedup = Rpc.dedup () in
        let rec serve () =
          (match Runtime.receive ctx [ Runtime.port ctx 0 ] with
          | `Msg (_, msg) -> Rpc.serve ctx ~dedup msg ~f:(fun command args -> (command, args))
          | `Timeout -> ());
          serve ()
        in
        serve ())
  in
  let server_port = List.hd (Runtime.guardian_ports server) in
  ignore
    (guardian "echo_client" ~at:0 (fun ctx ->
         for i = 1 to 40 do
           ignore
             (Rpc.call ctx ~to_:server_port ~timeout:(Clock.s 1) ~attempts:3 "echo" [ Value.int i ])
         done;
         let channel = Ordered.connect ctx ~to_:(Option.get !channel_port) () in
         Ordered.send channel (Value.int 0);
         ignore (Ordered.flush channel ~timeout:(Clock.s 2));
         Ordered.close channel;
         finished := Some (Runtime.ctx_now ctx)));
  Runtime.run_for world (Clock.s 60);
  let trace =
    List.map
      (fun e -> Printf.sprintf "%d %s %s" e.Trace.at e.Trace.category e.Trace.detail)
      (Trace.events (Runtime.trace world))
  in
  let stats = Runtime.network_stats world in
  ( trace,
    Printf.sprintf "sent=%d delivered=%d fragments=%d lost=%d bytes=%d"
      stats.Network.messages_sent stats.Network.messages_delivered stats.Network.fragments_sent
      stats.Network.fragments_lost stats.Network.bytes_sent,
    !finished )

let test_same_seed_same_bytes shards () =
  let trace_a, stats_a, finished_a = rpc_world ~seed:7 ~shards in
  let trace_b, stats_b, finished_b = rpc_world ~seed:7 ~shards in
  Alcotest.(check bool) "the client finished" true (Option.is_some finished_a);
  Alcotest.(check (list string)) "same sends, same ids" trace_a trace_b;
  Alcotest.(check string) "same network counters" stats_a stats_b;
  Alcotest.(check (option int)) "same finish time" finished_a finished_b

let test_repeat_identical () =
  let a = execute "bank" ~seed:5 ~shards:2 ~parallel:true in
  let b = execute "bank" ~seed:5 ~shards:2 ~parallel:true in
  Alcotest.(check string) "repeated parallel runs agree" a.Scenario.fingerprint
    b.Scenario.fingerprint

let tests =
  List.map
    (fun ((name, seed, shards, _) as row) ->
      Alcotest.test_case
        (Printf.sprintf "%s seed=%d shards=%d pinned" name seed shards)
        (if String.equal name "bank" then `Quick else `Slow)
        (test_pinned row))
    pinned
  @ [
      Alcotest.test_case "bank: 4-domain run matches sequential" `Quick
        (test_parallel_matches "bank" 5);
      Alcotest.test_case "register: 4-domain run matches sequential" `Slow
        (test_parallel_matches "register" 11);
      Alcotest.test_case "repeated parallel runs identical" `Quick test_repeat_identical;
      Alcotest.test_case "same seed, same bytes (shards=1)" `Quick (test_same_seed_same_bytes 1);
      Alcotest.test_case "same seed, same bytes (shards=2)" `Quick (test_same_seed_same_bytes 2);
    ]
