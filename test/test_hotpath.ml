(* Regression tests for the hot-path overhaul: per-attempt RPC deadlines,
   stable port indices, bounded waiter lists, link composition algebra,
   Hashtbl-backed metrics/guardian registries and the O(1) engine pending
   count. *)

open Dcp_wire
module Runtime = Dcp_core.Runtime
module Message = Dcp_core.Message
module Port = Dcp_core.Port
module Process = Dcp_core.Process
module Rpc = Dcp_primitives.Rpc
module Clock = Dcp_sim.Clock
module Engine = Dcp_sim.Engine
module Metrics = Dcp_sim.Metrics
module Topology = Dcp_net.Topology
module Link = Dcp_net.Link

let make_world ?(link = Link.perfect) () =
  Runtime.create_world ~seed:23 ~topology:(Topology.full_mesh ~n:2 link) ()

let driver world ~at body =
  let name = Printf.sprintf "driver%d" (Hashtbl.hash body) in
  let def =
    { Runtime.def_name = name; provides = []; init = (fun ctx _ -> body ctx); recover = None }
  in
  Runtime.register_def world def;
  ignore (Runtime.create_guardian world ~at ~def_name:name ~args:[])

(* ---- Rpc.call: stale replies must not extend the per-attempt deadline ---- *)

let test_rpc_stale_flood_deadline () =
  let world = make_world () in
  (* The server never answers the request; instead it floods the caller's
     reply port with responses to a *different* request id, one every 150ms
     for 3s.  With the timeout restarted per message the call would stretch
     to ~4s; with a per-attempt deadline it times out at exactly 1s. *)
  let flood_def =
    {
      Runtime.def_name = "staler";
      provides = [ ([ Vtype.wildcard ], 64) ];
      init =
        (fun ctx _ ->
          let rec loop () =
            (match Runtime.receive ctx [ Runtime.port ctx 0 ] with
            | `Timeout -> ()
            | `Msg (_, msg) -> (
                match (msg.Message.args, msg.Message.reply_to) with
                | Value.Int id :: _, Some reply ->
                    ignore
                      (Runtime.spawn ctx ~name:"flood" (fun () ->
                           for _ = 1 to 20 do
                             Runtime.sleep ctx (Clock.ms 150);
                             Runtime.send ctx ~to_:reply "done" [ Value.int (id + 1000) ]
                           done))
                | _ -> ()));
            loop ()
          in
          loop ());
      recover = None;
    }
  in
  Runtime.register_def world flood_def;
  let server = Runtime.create_guardian world ~at:1 ~def_name:"staler" ~args:[] in
  let server_port = List.hd (Runtime.guardian_ports server) in
  let outcome = ref None in
  let elapsed = ref Clock.zero in
  driver world ~at:0 (fun ctx ->
      let t0 = Runtime.ctx_now ctx in
      let r = Rpc.call ctx ~to_:server_port ~timeout:(Clock.s 1) ~attempts:1 "work" [] in
      elapsed := Clock.diff (Runtime.ctx_now ctx) t0;
      outcome := Some r);
  Runtime.run_for world (Clock.s 10);
  (match !outcome with
  | Some Rpc.Timeout -> ()
  | _ -> Alcotest.fail "expected Timeout despite the stale-reply flood");
  Alcotest.(check bool)
    (Format.asprintf "attempt bounded by its deadline (took %a)" Clock.pp !elapsed)
    true
    (Clock.compare !elapsed (Clock.ms 1100) <= 0)

(* ---- dedup: bounded cache evicts oldest, O(1) per insert ---- *)

let test_rpc_dedup_eviction_order () =
  let world = make_world () in
  let executions = ref 0 in
  let dedup = Rpc.dedup ~capacity:2 () in
  let server_def =
    {
      Runtime.def_name = "tiny_cache";
      provides = [ ([ Vtype.wildcard ], 64) ];
      init =
        (fun ctx _ ->
          let rec loop () =
            (match Runtime.receive ctx [ Runtime.port ctx 0 ] with
            | `Timeout -> ()
            | `Msg (_, msg) ->
                Rpc.serve ctx ~dedup msg ~f:(fun _ _ ->
                    incr executions;
                    ("done", [])));
            loop ()
          in
          loop ());
      recover = None;
    }
  in
  Runtime.register_def world server_def;
  let server = Runtime.create_guardian world ~at:1 ~def_name:"tiny_cache" ~args:[] in
  let server_port = List.hd (Runtime.guardian_ports server) in
  driver world ~at:0 (fun ctx ->
      let call id = ignore (Rpc.call ctx ~to_:server_port ~request_id:id "work" []) in
      call 1;
      call 2;
      call 3;
      (* capacity 2: inserting id 3 evicted id 1 ... *)
      call 1;
      (* ... so id 1 re-executes; id 3 is still cached and must not. *)
      call 3);
  Runtime.run_for world (Clock.s 5);
  Alcotest.(check int) "1,2,3 executed, replay of 1 re-executed, 3 cached" 4 !executions

(* ---- port indices: minted monotonically, stable across removal ---- *)

let test_port_index_stable_after_removal () =
  let world = make_world () in
  let indices = ref [] in
  let lookup_ok = ref false in
  driver world ~at:0 (fun ctx ->
      let p1 = Runtime.new_port ctx [ Vtype.wildcard ] in
      let p2 = Runtime.new_port ctx [ Vtype.wildcard ] in
      Runtime.remove_port ctx p1;
      let p3 = Runtime.new_port ctx [ Vtype.wildcard ] in
      let idx p = (Port.name p).Port_name.index in
      indices := [ idx p1; idx p2; idx p3 ];
      (* positional lookup resolves by minted index, not list position *)
      lookup_ok :=
        Port_name.equal (Port.name (Runtime.port ctx (idx p2))) (Port.name p2)
        && Port_name.equal (Port.name (Runtime.port ctx (idx p3))) (Port.name p3));
  Runtime.run_for world (Clock.s 1);
  (match !indices with
  | [ 0; 1; 2 ] -> ()
  | l ->
      Alcotest.failf "expected indices [0;1;2], got [%s]"
        (String.concat ";" (List.map string_of_int l)));
  Alcotest.(check bool) "Runtime.port finds ports by their index" true !lookup_ok

(* ---- receive: waiters deregister from every port on timeout/resume ---- *)

let test_waiter_lists_bounded_under_timeouts () =
  let world = make_world () in
  let ports = ref None in
  let got_late = ref false in
  let listener_def =
    {
      Runtime.def_name = "listener";
      provides = [ ([ Vtype.wildcard ], 64); ([ Vtype.wildcard ], 64) ];
      init =
        (fun ctx _ ->
          let a = Runtime.port ctx 0 and b = Runtime.port ctx 1 in
          ports := Some (a, b);
          (* a heartbeat-style loop: 50 timed-out receives over both ports *)
          for _ = 1 to 50 do
            match Runtime.receive ctx ~timeout:(Clock.ms 1) [ a; b ] with
            | `Timeout -> ()
            | `Msg _ -> ()
          done;
          (* then block on both; a message on [b] must also clear [a] *)
          match Runtime.receive ctx ~timeout:(Clock.s 5) [ a; b ] with
          | `Msg (p, _) when Port_name.equal (Port.name p) (Port.name b) -> got_late := true
          | `Msg _ | `Timeout -> ());
      recover = None;
    }
  in
  Runtime.register_def world listener_def;
  let listener = Runtime.create_guardian world ~at:0 ~def_name:"listener" ~args:[] in
  let port_b = List.nth (Runtime.guardian_ports listener) 1 in
  Runtime.run_for world (Clock.ms 500);
  let a, b = Option.get !ports in
  (* 50 timed-out receives left nothing behind; only the final blocking
     receive is registered, once per port (pre-fix: 51 dead entries each). *)
  Alcotest.(check int) "a holds just the live waiter" 1 (Port.waiter_count a);
  Alcotest.(check int) "b holds just the live waiter" 1 (Port.waiter_count b);
  driver world ~at:0 (fun ctx -> Runtime.send ctx ~to_:port_b "wake" []);
  Runtime.run_for world (Clock.s 1);
  Alcotest.(check bool) "late message delivered via b" true !got_late;
  Alcotest.(check int) "resuming via b cleared a's waiter" 0 (Port.waiter_count a);
  Alcotest.(check int) "b's waiter consumed by delivery" 0 (Port.waiter_count b)

(* A timed receive that a message answers leaves no waiter, and its timer
   is cancelled: the engine's pending count is back where it stood before
   the receive. *)
let test_answered_receive_cancels_timer () =
  let e = Engine.create () in
  let p =
    Port.create
      ~name:(Port_name.make ~node:0 ~guardian:0 ~index:0 ~uid:1)
      ~ptype:[ Vtype.wildcard ] ~capacity:4
  in
  let before = ref (-1) and answered = ref false in
  ignore
    (Process.spawn e ~name:"receiver" (fun () ->
         before := Engine.pending e;
         match Port.receive e ~ports:[ p ] ~timeout:(Some (Clock.s 5)) with
         | `Msg _ -> answered := true
         | `Timeout -> ()));
  Engine.run_for e (Clock.ms 1);
  Alcotest.(check int) "blocked, with its timer" (!before + 1) (Engine.pending e);
  Alcotest.(check bool) "handed to the receiver" true
    (Port.enqueue p (Message.make ~sent_at:0 "wake" []) = `Delivered);
  Alcotest.(check bool) "answered" true !answered;
  Alcotest.(check int) "no waiter left" 0 (Port.waiter_count p);
  Alcotest.(check int) "timer cancelled" !before (Engine.pending e)

let two_port_listener world name body =
  let ports = ref None in
  Runtime.register_def world
    {
      Runtime.def_name = name;
      provides = [ ([ Vtype.wildcard ], 8); ([ Vtype.wildcard ], 8) ];
      init =
        (fun ctx _ ->
          let a = Runtime.port ctx 0 and b = Runtime.port ctx 1 in
          ports := Some (a, b);
          body ctx a b);
      recover = None;
    };
  let g = Runtime.create_guardian world ~at:0 ~def_name:name ~args:[] in
  (ports, Runtime.guardian_ports g)

let test_two_port_timeout_leaves_no_waiter () =
  let world = make_world () in
  let timed_out = ref false in
  let ports, _ =
    two_port_listener world "timeout_listener" (fun ctx a b ->
        match Runtime.receive ctx ~timeout:(Clock.ms 1) [ a; b ] with
        | `Timeout -> timed_out := true
        | `Msg _ -> ())
  in
  Runtime.run_for world (Clock.ms 10);
  let a, b = Option.get !ports in
  Alcotest.(check bool) "timed out" true !timed_out;
  Alcotest.(check int) "none on the first port" 0 (Port.waiter_count a);
  Alcotest.(check int) "none on the second port" 0 (Port.waiter_count b)

(* Both ports hold a message when the receive starts, the later port's
   the older: the earlier port in the list is served first. *)
let test_earlier_port_served_first () =
  let world = make_world () in
  let got = ref [] in
  let _, names =
    two_port_listener world "priority_listener" (fun ctx a b ->
        Runtime.sleep ctx (Clock.ms 1);
        for _ = 1 to 2 do
          match Runtime.receive ctx ~timeout:(Clock.ms 1) [ a; b ] with
          | `Msg (_, msg) -> got := msg.Message.command :: !got
          | `Timeout -> ()
        done)
  in
  let a, b = match names with [ a; b ] -> (a, b) | _ -> assert false in
  driver world ~at:1 (fun ctx ->
      Runtime.send ctx ~to_:b "second" [];
      Runtime.send ctx ~to_:a "first" []);
  Runtime.run_for world (Clock.ms 10);
  Alcotest.(check (list string)) "the first port's message first" [ "first"; "second" ]
    (List.rev !got)

(* ---- metrics registry: O(1) get-or-create at 1k+ distinct names ---- *)

let test_metrics_registry_many_names () =
  let r = Metrics.registry () in
  let n = 1500 in
  for i = 0 to n - 1 do
    let c = Metrics.counter r (Printf.sprintf "c.%d" i) in
    for _ = 0 to i mod 7 do
      Metrics.incr c
    done
  done;
  (* get-or-create must return the same instrument, not a fresh one *)
  Metrics.add (Metrics.counter r "c.42") 100;
  Alcotest.(check int) "same counter instance" (100 + 1 + (42 mod 7))
    (Metrics.count (Metrics.counter r "c.42"));
  let listed = Metrics.counters r in
  Alcotest.(check int) "all names listed" n (List.length listed);
  (* reports preserve creation order *)
  Alcotest.(check string) "first created listed first" "c.0" (fst (List.hd listed));
  Alcotest.(check string) "last created listed last" (Printf.sprintf "c.%d" (n - 1))
    (fst (List.nth listed (n - 1)));
  List.iteri
    (fun i (name, v) ->
      if name = Printf.sprintf "c.%d" i then begin
        let expect = 1 + (i mod 7) + if i = 42 then 100 else 0 in
        if v <> expect then Alcotest.failf "counter %s: expected %d, got %d" name expect v
      end
      else Alcotest.failf "creation order broken at %d: %s" i name)
    listed;
  (* histograms share the registry without clashing with counters *)
  for i = 0 to 99 do
    Metrics.observe (Metrics.histogram r (Printf.sprintf "h.%d" i)) (float_of_int i)
  done;
  Alcotest.(check int) "histograms listed" 100 (List.length (Metrics.histograms r));
  Alcotest.(check int) "histogram samples" 1
    (Metrics.samples (Metrics.histogram r "h.7"))

(* ---- engine: pending is exact (and O(1)) through cancel/fire ---- *)

(* A cancellable timeout: a guarded event alive while [armed]; [cancel]
   kills it once and tells the engine, as a served receive does. *)
let timeout_event = { Engine.fire = (fun armed () -> armed := false); live = ( ! ) }

let cancel e armed =
  if !armed then begin
    armed := false;
    Engine.discard e
  end

let test_engine_pending_exact () =
  let e = Engine.create () in
  let timeouts =
    List.init 100 (fun i ->
        let armed = ref true in
        Engine.post_after e ~delay:(Clock.ms i) timeout_event armed ();
        armed)
  in
  Alcotest.(check int) "all scheduled" 100 (Engine.pending e);
  List.iteri (fun i t -> if i mod 2 = 0 then cancel e t) timeouts;
  Alcotest.(check int) "half cancelled" 50 (Engine.pending e);
  (* double cancel must not double-decrement *)
  List.iteri (fun i t -> if i mod 2 = 0 then cancel e t) timeouts;
  Alcotest.(check int) "re-cancel is a no-op" 50 (Engine.pending e);
  ignore (Engine.step e);
  Alcotest.(check int) "one fired" 49 (Engine.pending e);
  (* cancelling an already-fired timeout must not decrement *)
  List.iter (cancel e) timeouts;
  Alcotest.(check int) "cancel after fire is a no-op" 0 (Engine.pending e);
  Engine.run e;
  Alcotest.(check int) "drained" 0 (Engine.pending e)

(* ---- guardian lookup: def-name index returns creation order ---- *)

let test_find_guardians_creation_order () =
  let world = make_world () in
  let def =
    { Runtime.def_name = "indexed"; provides = []; init = (fun _ _ -> ()); recover = None }
  in
  Runtime.register_def world def;
  let made =
    List.init 5 (fun i ->
        Runtime.guardian_id
          (Runtime.create_guardian world ~at:(i mod 2) ~def_name:"indexed" ~args:[]))
  in
  let found = List.map Runtime.guardian_id (Runtime.find_guardians world ~def_name:"indexed") in
  Alcotest.(check (list int)) "creation order, across nodes" made found;
  Alcotest.(check (list int)) "unknown def -> []" []
    (List.map Runtime.guardian_id (Runtime.find_guardians world ~def_name:"nope"))

let tests =
  [
    Alcotest.test_case "rpc stale flood bounded by deadline" `Quick test_rpc_stale_flood_deadline;
    Alcotest.test_case "rpc dedup evicts oldest O(1)" `Quick test_rpc_dedup_eviction_order;
    Alcotest.test_case "port index stable after removal" `Quick test_port_index_stable_after_removal;
    Alcotest.test_case "waiter lists bounded" `Quick test_waiter_lists_bounded_under_timeouts;
    Alcotest.test_case "answered receive cancels its timer" `Quick
      test_answered_receive_cancels_timer;
    Alcotest.test_case "two-port timeout leaves no waiter" `Quick
      test_two_port_timeout_leaves_no_waiter;
    Alcotest.test_case "earlier port served first" `Quick test_earlier_port_served_first;
    Alcotest.test_case "metrics registry 1.5k names" `Quick test_metrics_registry_many_names;
    Alcotest.test_case "engine pending exact" `Quick test_engine_pending_exact;
    Alcotest.test_case "find_guardians indexed" `Quick test_find_guardians_creation_order;
  ]
