(* The ordered-delivery channel: FIFO, exactly-once delivery built over
   the no-wait send (§3.4's "processes must coordinate to achieve it"). *)

open Dcp_wire
module Runtime = Dcp_core.Runtime
module Ordered = Dcp_primitives.Ordered
module Clock = Dcp_sim.Clock
module Topology = Dcp_net.Topology
module Network = Dcp_net.Network
module Link = Dcp_net.Link

let make_world ?(link = Link.perfect) () =
  Runtime.create_world ~seed:83 ~topology:(Topology.full_mesh ~n:2 link) ()

let fresh_name =
  let i = ref 0 in
  fun () ->
    incr i;
    Printf.sprintf "ordered_%d" !i

let guardian world ~at body =
  let name = fresh_name () in
  let def =
    { Runtime.def_name = name; provides = []; init = (fun ctx _ -> body ctx); recover = None }
  in
  Runtime.register_def world def;
  ignore (Runtime.create_guardian world ~at ~def_name:name ~args:[])

(* Wire a (sender at node 0) -> (receiver at node 1) pipeline carrying
   [count] integers; returns what the receiver delivered in order. *)
let run_pipeline ?link ?(window = 16) ~count () =
  let world = make_world ?link () in
  let received = ref [] in
  let port_cell = ref None in
  guardian world ~at:1 (fun ctx ->
      let receiver = Ordered.receiver ctx ~capacity:128 () in
      port_cell := Some (Ordered.receiver_port receiver);
      let rec pull () =
        match Ordered.recv receiver ~timeout:(Clock.s 2) () with
        | Some (Value.Int n) ->
            received := n :: !received;
            if List.length !received < count then pull ()
        | Some _ -> pull ()
        | None -> ()
      in
      pull ());
  let sent_transmissions = ref 0 in
  guardian world ~at:0 (fun ctx ->
      (* Wait for the receiver to publish its port. *)
      let rec wait_port () =
        match !port_cell with
        | Some port -> port
        | None ->
            Runtime.sleep ctx (Clock.ms 1);
            wait_port ()
      in
      let dest = wait_port () in
      let sender = Ordered.connect ctx ~to_:dest ~window ~retransmit_every:(Clock.ms 50) () in
      for i = 0 to count - 1 do
        Ordered.send sender (Value.int i)
      done;
      ignore (Ordered.flush sender ~timeout:(Clock.s 60));
      sent_transmissions := Ordered.messages_sent sender;
      Ordered.close sender);
  Runtime.run_for world (Clock.s 120);
  (List.rev !received, !sent_transmissions)

let test_fifo_on_perfect_link () =
  let received, transmissions = run_pipeline ~count:50 () in
  Alcotest.(check (list int)) "in order, exactly once" (List.init 50 Fun.id) received;
  Alcotest.(check int) "no retransmissions needed" 50 transmissions

let test_fifo_survives_reordering () =
  (* Heavy jitter: the raw network reorders aggressively; the channel must
     still deliver FIFO. *)
  let link = { Link.perfect with base_latency = Clock.ms 1; jitter = Clock.ms 30 } in
  let received, _ = run_pipeline ~link ~count:60 () in
  Alcotest.(check (list int)) "in order despite jitter" (List.init 60 Fun.id) received

let test_fifo_survives_loss_and_duplication () =
  let link = { (Link.lossy 0.25) with duplicate = 0.1; base_latency = Clock.ms 1 } in
  let received, transmissions = run_pipeline ~link ~count:40 () in
  Alcotest.(check (list int)) "in order despite loss+dup" (List.init 40 Fun.id) received;
  Alcotest.(check bool)
    (Printf.sprintf "retransmissions happened (%d > 40)" transmissions)
    true (transmissions > 40)

let test_window_blocks_sender () =
  (* With a dead receiver the window fills and send blocks; flush times
     out with data still in flight. *)
  let world = make_world () in
  let finished = ref false and fifth_sent = ref false in
  guardian world ~at:0 (fun ctx ->
      let dead = Port_name.make ~node:1 ~guardian:777 ~index:0 ~uid:888 in
      let sender = Ordered.connect ctx ~to_:dead ~window:4 ~retransmit_every:(Clock.ms 20) () in
      for i = 0 to 3 do
        Ordered.send sender (Value.int i)
      done;
      (* window now full; flush can't succeed *)
      let flushed = Ordered.flush sender ~timeout:(Clock.ms 300) in
      finished := not flushed;
      (* nor can a fifth send, which waits for room that never comes *)
      Ordered.send sender (Value.int 4);
      fifth_sent := true;
      Ordered.close sender);
  Runtime.run_for world (Clock.s 2);
  Alcotest.(check bool) "flush reported failure" true !finished;
  Alcotest.(check bool) "window still full" false !fifth_sent

let test_two_channels_do_not_interfere () =
  let world = make_world () in
  let got_a = ref [] and got_b = ref [] in
  let port_a = ref None and port_b = ref None in
  let receiver_guardian cell out =
    guardian world ~at:1 (fun ctx ->
        let receiver = Ordered.receiver ctx () in
        cell := Some (Ordered.receiver_port receiver);
        let rec pull () =
          match Ordered.recv receiver ~timeout:(Clock.s 1) () with
          | Some (Value.Int n) ->
              out := n :: !out;
              if List.length !out < 10 then pull ()
          | Some _ | None -> ()
        in
        pull ())
  in
  receiver_guardian port_a got_a;
  receiver_guardian port_b got_b;
  guardian world ~at:0 (fun ctx ->
      let rec wait cell =
        match !cell with
        | Some port -> port
        | None ->
            Runtime.sleep ctx (Clock.ms 1);
            wait cell
      in
      let sa = Ordered.connect ctx ~to_:(wait port_a) () in
      let sb = Ordered.connect ctx ~to_:(wait port_b) () in
      for i = 0 to 9 do
        Ordered.send sa (Value.int i);
        Ordered.send sb (Value.int (100 + i))
      done;
      ignore (Ordered.flush sa ~timeout:(Clock.s 10));
      ignore (Ordered.flush sb ~timeout:(Clock.s 10));
      Ordered.close sa;
      Ordered.close sb);
  Runtime.run_for world (Clock.s 30);
  Alcotest.(check (list int)) "channel A" (List.init 10 Fun.id) (List.rev !got_a);
  Alcotest.(check (list int)) "channel B" (List.init 10 (fun i -> 100 + i)) (List.rev !got_b)

let prop_fifo_random_loss =
  QCheck2.Test.make ~name:"ordered channel is FIFO for random loss rates" ~count:8
    QCheck2.Gen.(pair (int_range 1 30) (float_range 0.0 0.4))
    (fun (count, loss) ->
      let link = { (Link.lossy loss) with base_latency = Clock.ms 1; jitter = Clock.ms 5 } in
      let received, _ = run_pipeline ~link ~count () in
      received = List.init count Fun.id)

let tests =
  [
    Alcotest.test_case "FIFO on perfect link" `Quick test_fifo_on_perfect_link;
    Alcotest.test_case "FIFO under jitter" `Quick test_fifo_survives_reordering;
    Alcotest.test_case "FIFO under loss+dup" `Quick test_fifo_survives_loss_and_duplication;
    Alcotest.test_case "window blocks sender" `Quick test_window_blocks_sender;
    Alcotest.test_case "channels independent" `Quick test_two_channels_do_not_interfere;
    QCheck_alcotest.to_alcotest prop_fifo_random_loss;
  ]
