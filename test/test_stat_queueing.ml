(* The network's bandwidth-queueing mode. *)

module Engine = Dcp_sim.Engine
module Clock = Dcp_sim.Clock
module Network = Dcp_net.Network
module Topology = Dcp_net.Topology
module Link = Dcp_net.Link
module Rng = Dcp_rng.Rng

(* ---- bandwidth queueing ---- *)

let queued_net ~queueing =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:7 in
  (* 10 KB/s, zero latency: transfer time is purely serialization. *)
  let link = { Link.perfect with bandwidth = Some 10_000 } in
  let net =
    Network.create ~engine ~rng ~topology:(Topology.full_mesh ~n:2 link) ~mtu:1_000_000
      ~queueing ()
  in
  (engine, net)

let arrival_times ~queueing ~messages ~size =
  let engine, net = queued_net ~queueing in
  let arrivals = ref [] in
  Network.set_handler net 1 (fun ~src:_ _body -> arrivals := Engine.now engine :: !arrivals);
  for _ = 1 to messages do
    Network.send net ~src:0 ~dst:1 (String.make size 'x')
  done;
  Engine.run engine;
  List.rev !arrivals

let test_queueing_serializes_concurrent_sends () =
  (* Three 1000-byte messages (1024B with header) at 10KB/s ~ 102.4ms each.
     Queued: arrivals stack ~102, ~205, ~307ms.  Unqueued: all ~102ms. *)
  let unqueued = arrival_times ~queueing:false ~messages:3 ~size:1000 in
  let queued = arrival_times ~queueing:true ~messages:3 ~size:1000 in
  (match unqueued with
  | [ a; b; c ] ->
      Alcotest.(check bool) "unqueued overlap" true (a = b && b = c)
  | _ -> Alcotest.fail "expected three arrivals");
  match queued with
  | [ a; b; c ] ->
      Alcotest.(check bool) "queued spread out" true (b - a > Clock.ms 90 && c - b > Clock.ms 90);
      Alcotest.(check bool) "first unaffected" true (abs (a - (b - a)) < Clock.ms 5)
  | _ -> Alcotest.fail "expected three arrivals"

let test_queueing_idle_link_no_penalty () =
  (* A single transfer pays serialization once, queued or not. *)
  let t1 = arrival_times ~queueing:false ~messages:1 ~size:2000 in
  let t2 = arrival_times ~queueing:true ~messages:1 ~size:2000 in
  Alcotest.(check bool) "same time when idle" true (t1 = t2)

let test_queueing_per_direction () =
  (* Opposite directions have independent transmitters. *)
  let engine = Engine.create () in
  let rng = Rng.create ~seed:9 in
  let link = { Link.perfect with bandwidth = Some 10_000 } in
  let net =
    Network.create ~engine ~rng ~topology:(Topology.full_mesh ~n:2 link) ~mtu:1_000_000
      ~queueing:true ()
  in
  let arrivals = ref [] in
  Network.set_handler net 0 (fun ~src:_ _ -> arrivals := ("to0", Engine.now engine) :: !arrivals);
  Network.set_handler net 1 (fun ~src:_ _ -> arrivals := ("to1", Engine.now engine) :: !arrivals);
  Network.send net ~src:0 ~dst:1 (String.make 1000 'x');
  Network.send net ~src:1 ~dst:0 (String.make 1000 'x');
  Engine.run engine;
  match List.rev !arrivals with
  | [ (_, t1); (_, t2) ] -> Alcotest.(check bool) "full duplex" true (t1 = t2)
  | _ -> Alcotest.fail "expected two arrivals"

let tests =
  [
    Alcotest.test_case "queueing serializes" `Quick test_queueing_serializes_concurrent_sends;
    Alcotest.test_case "queueing idle no penalty" `Quick test_queueing_idle_link_no_penalty;
    Alcotest.test_case "queueing per direction" `Quick test_queueing_per_direction;
  ]
