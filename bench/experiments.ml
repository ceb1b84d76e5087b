(* The paper-shape experiments E1-E8 (see DESIGN.md §4).  Each experiment
   builds a fresh simulated world, drives it, and prints one table.  All
   numbers are virtual-time measurements, reproducible from the seeds. *)

open Dcp_wire
module Runtime = Dcp_core.Runtime
module Primordial = Dcp_core.Primordial
module Message = Dcp_core.Message
module Port = Dcp_core.Port
module Rpc = Dcp_primitives.Rpc
module Sync_send = Dcp_primitives.Sync_send
module Patterns = Dcp_primitives.Patterns
module Types = Dcp_airline.Types
module Flight = Dcp_airline.Flight
module Cluster = Dcp_airline.Cluster
module Workload = Dcp_airline.Workload
module Assoc_mem = Dcp_assoc.Assoc_mem
module Store = Dcp_stable.Store
module Disk = Dcp_stable.Disk
module Clock = Dcp_sim.Clock
module Metrics = Dcp_sim.Metrics
module Topology = Dcp_net.Topology
module Network = Dcp_net.Network
module Link = Dcp_net.Link
module Rng = Dcp_rng.Rng

let fresh_name =
  let n = ref 0 in
  fun prefix ->
    incr n;
    Printf.sprintf "%s_%d" prefix !n

let driver world ~at body =
  let name = fresh_name "bench_driver" in
  let def =
    { Runtime.def_name = name; provides = []; init = (fun ctx _ -> body ctx); recover = None }
  in
  Runtime.register_def world def;
  ignore (Runtime.create_guardian world ~at ~def_name:name ~args:[])

(* ------------------------------------------------------------------ *)
(* E1 — Figure 1: the three flight-guardian organizations              *)
(* ------------------------------------------------------------------ *)

(* N requests spread over D dates against one flight guardian with a fixed
   per-request service time; the makespan shows which organizations give
   concurrent manipulation of the database. *)
let e1_one_config ~organization ~dates =
  let world =
    Runtime.create_world ~seed:101 ~topology:(Topology.full_mesh ~n:2 Link.perfect) ()
  in
  let service = Clock.ms 10 in
  let total = 32 in
  let flight =
    Flight.create world ~at:0 ~flight:1 ~capacity:1000 ~organization ~service_time:service ()
  in
  let finished = ref 0 in
  let makespan = ref 0 in
  for i = 0 to total - 1 do
    driver world ~at:1 (fun ctx ->
        match
          Rpc.call ctx ~to_:flight ~timeout:(Clock.s 30) "reserve"
            [ Value.str (Printf.sprintf "p%d" i); Value.int (i mod dates) ]
        with
        | Rpc.Reply _ ->
            incr finished;
            if !finished = total then makespan := Runtime.now world
        | Rpc.Failure_msg _ | Rpc.Timeout -> ())
  done;
  Runtime.run_for world (Clock.s 60);
  let makespan_ms = Clock.to_float_ms !makespan in
  let throughput = float_of_int total /. (makespan_ms /. 1000.0) in
  (makespan_ms, throughput, !finished = total)

let e1 () =
  let orgs = [ Types.One_at_a_time; Types.Serializer; Types.Monitor ] in
  let date_counts = [ 1; 2; 4; 8 ] in
  let rows =
    List.concat_map
      (fun organization ->
        List.map
          (fun dates ->
            let makespan, throughput, complete = e1_one_config ~organization ~dates in
            [
              Types.organization_to_string organization;
              Tables.i dates;
              Tables.f1 makespan;
              Tables.f1 throughput;
              (if complete then "yes" else "NO");
            ])
          date_counts)
      orgs
  in
  Tables.print ~title:"E1  Figure 1 organizations: 32 requests, 10ms service time"
    ~header:[ "organization"; "dates"; "makespan ms"; "req/s"; "all served" ]
    rows

(* ------------------------------------------------------------------ *)
(* E2 — Figure 2: regional partitioning vs. one central guardian       *)
(* ------------------------------------------------------------------ *)

let e2_run ~centralized ~regions =
  let params =
    {
      Cluster.default_params with
      regions;
      flights_per_region = 4;
      capacity = 10_000;
      service_time = Clock.ms 2;
      clerks_per_region = 2;
      centralized;
      clerk =
        {
          Workload.default_config with
          transactions = 0;
          requests_per_transaction = 5;
          think_time = Clock.ms 20;
          dates = 30;
          request_timeout = Clock.s 2;
        };
    }
  in
  let cluster = Cluster.build params in
  Cluster.run cluster ~duration:(Clock.s 30)

let e2 () =
  let rows =
    List.concat_map
      (fun regions ->
        List.map
          (fun centralized ->
            let r = e2_run ~centralized ~regions in
            [
              Tables.i regions;
              (if centralized then "central" else "regional");
              Tables.f1 r.Cluster.throughput_per_s;
              Tables.f1 (r.Cluster.latency_p50_us /. 1000.0);
              Tables.f1 (r.Cluster.latency_p95_us /. 1000.0);
              Tables.i r.Cluster.requests_failed;
            ])
          [ false; true ])
      [ 2; 4; 8 ]
  in
  Tables.print
    ~title:
      "E2  Figure 2 layout: all flight data behind node 0 (central) vs one region per node \
       (regional), WAN links, 80% region-local traffic"
    ~header:[ "regions"; "layout"; "req/s"; "p50 ms"; "p95 ms"; "failed" ]
    rows

(* Advantage 1 made visible: under a CPU-heavy load (10ms of processor
   time per request, 4 processors per node) the central node saturates —
   every guardian at it competes for the same cycles — while the regional
   layout spreads the same demand over R nodes. *)
let e2b_run ~centralized =
  let params =
    {
      Cluster.default_params with
      regions = 4;
      flights_per_region = 4;
      capacity = 10_000;
      service_time = Clock.ms 10;
      clerks_per_region = 8;
      centralized;
      config = { Runtime.default_config with processors_per_node = 4 };
      clerk =
        {
          Workload.default_config with
          transactions = 0;
          requests_per_transaction = 5;
          think_time = Clock.ms 5;
          dates = 30;
          request_timeout = Clock.s 5;
        };
    }
  in
  Cluster.run (Cluster.build params) ~duration:(Clock.s 30)

let e2b () =
  let rows =
    List.map
      (fun centralized ->
        let r = e2b_run ~centralized in
        [
          (if centralized then "central" else "regional");
          Tables.f1 r.Cluster.throughput_per_s;
          Tables.f1 (r.Cluster.latency_p50_us /. 1000.0);
          Tables.f1 (r.Cluster.latency_p95_us /. 1000.0);
        ])
      [ false; true ]
  in
  Tables.print
    ~title:
      "E2b Advantage 1 (processor contention): CPU-heavy load (10ms/request), 4 CPUs per node, 32 clerks — all guardians on one node compete for its cycles"
    ~header:[ "layout"; "req/s"; "p50 ms"; "p95 ms" ]
    rows

(* ------------------------------------------------------------------ *)
(* E3 — Figure 3: guardian creation, local vs through the primordial   *)
(* ------------------------------------------------------------------ *)

let noop_def = { Runtime.def_name = "e3_noop"; provides = []; init = (fun _ _ -> ()); recover = None }

let e3 () =
  let count = 20 in
  let run_variant remote =
    let world =
      Runtime.create_world ~seed:103 ~topology:(Topology.full_mesh ~n:2 Link.wan) ()
    in
    Primordial.install world;
    Runtime.register_def world noop_def;
    Network.reset_stats (Runtime.network world);
    let latencies = ref [] in
    driver world ~at:0 (fun ctx ->
        for _ = 1 to count do
          let started = Runtime.ctx_now ctx in
          (if remote then
             match
               Primordial.request_create ctx ~at:1 ~def_name:"e3_noop" ~args:[]
                 ~timeout:(Clock.s 5)
             with
             | `Created _ -> ()
             | `Refused _ | `Timeout -> ()
           else ignore (Runtime.ctx_create_guardian ctx ~def_name:"e3_noop" ~args:[]));
          latencies := Clock.to_float_ms (Clock.diff (Runtime.ctx_now ctx) started) :: !latencies
        done);
    Runtime.run_for world (Clock.s 30);
    let net = Network.stats (Runtime.network world) in
    let mean = List.fold_left ( +. ) 0.0 !latencies /. float_of_int count in
    let created =
      List.length
        (List.filter
           (fun g -> Runtime.guardian_node g = if remote then 1 else 0)
           (Runtime.find_guardians world ~def_name:"e3_noop"))
    in
    (mean, float_of_int net.Network.messages_sent /. float_of_int count, created)
  in
  let local_mean, local_msgs, local_created = run_variant false in
  let remote_mean, remote_msgs, remote_created = run_variant true in
  Tables.print
    ~title:"E3  Guardian creation: at own node vs at a remote node via its primordial guardian (WAN)"
    ~header:[ "method"; "created at"; "mean latency ms"; "msgs/creation"; "created" ]
    [
      [ "ctx_create_guardian"; "own node"; Tables.f2 local_mean; Tables.f1 local_msgs; Tables.i local_created ];
      [ "primordial protocol"; "remote node"; Tables.f2 remote_mean; Tables.f1 remote_msgs; Tables.i remote_created ];
    ]

(* ------------------------------------------------------------------ *)
(* E4 — Figures 4-5: transactions under node crashes + idempotency     *)
(* ------------------------------------------------------------------ *)

let e4_crashes () =
  let run_with ~crash_period_s =
    let params =
      {
        Cluster.default_params with
        regions = 3;
        flights_per_region = 3;
        capacity = 10_000;
        service_time = Clock.ms 1;
        clerks_per_region = 2;
        clerk =
          {
            Workload.default_config with
            transactions = 0;
            requests_per_transaction = 4;
            think_time = Clock.ms 20;
            request_timeout = Clock.ms 500;
            attempts = 3;
          };
      }
    in
    let cluster = Cluster.build params in
    let world = cluster.Cluster.world in
    (match crash_period_s with
    | None -> ()
    | Some period ->
        let rng = Rng.split (Runtime.world_rng world) in
        let rec schedule_crash at =
          if at < 60 then begin
            let victim = Rng.int rng params.Cluster.regions in
            Runtime.schedule_at world ~node:victim ~at:(Clock.s at) (fun () ->
                Runtime.crash_node world victim;
                Runtime.schedule_at world ~node:victim ~at:(Clock.s (at + 2)) (fun () ->
                    Runtime.restart_node world victim);
                schedule_crash (at + period))
          end
        in
        schedule_crash period);
    Cluster.run cluster ~duration:(Clock.s 60)
  in
  let rows =
    List.map
      (fun (label, period) ->
        let r = run_with ~crash_period_s:period in
        [
          label;
          Tables.i r.Cluster.transactions_completed;
          Tables.i r.Cluster.transactions_abandoned;
          Tables.i r.Cluster.requests_failed;
          Tables.f1 r.Cluster.throughput_per_s;
        ])
      [ ("no crashes", None); ("crash every 20s", Some 20); ("crash every 8s", Some 8) ]
  in
  Tables.print
    ~title:
      "E4a Figure 5 transactions under regional-node crashes (2s outages, timeout+retry \
       clerks, transactions forgotten on front-desk crash)"
    ~header:[ "failure rate"; "txn done"; "txn abandoned"; "request failures"; "req/s" ]
    rows

(* Idempotency ablation: same lossy workload against idempotent-set vs
   naive-counter accounting; retries duplicate effects only for the naive
   design.  Seats are counted from the guardians' own stable stores. *)
let e4_idempotency () =
  let run_with ~accounting =
    let world =
      Runtime.create_world ~seed:104 ~topology:(Topology.full_mesh ~n:2 (Link.lossy 0.15)) ()
    in
    let flight =
      Flight.create world ~at:0 ~flight:1 ~capacity:100_000 ~accounting
        ~service_time:(Clock.us 100) ()
    in
    let oks = ref 0 in
    let total = 150 in
    driver world ~at:1 (fun ctx ->
        for i = 0 to total - 1 do
          match
            Rpc.call ctx ~to_:flight ~timeout:(Clock.ms 100) ~attempts:5 "reserve"
              [ Value.str (Printf.sprintf "p%d" i); Value.int (i mod 20) ]
          with
          | Rpc.Reply (("ok" | "pre_reserved"), _) -> incr oks
          | Rpc.Reply _ | Rpc.Failure_msg _ | Rpc.Timeout -> ()
        done);
    Runtime.run_for world (Clock.s 120);
    (* Count seats actually consumed, from the flight guardian's store. *)
    let seats = ref 0 in
    List.iter
      (fun g ->
        let store = Runtime.guardian_store g in
        Store.fold store ~init:() ~f:(fun ~key value () ->
            match String.split_on_char ':' key with
            | [ "r"; _; _ ] -> incr seats
            | [ "c"; _ ] -> seats := !seats + int_of_string value
            | _ -> ()))
      (Runtime.find_guardians world ~def_name:Flight.def_name);
    (!oks, !seats)
  in
  let rows =
    List.map
      (fun (label, accounting) ->
        let oks, seats = run_with ~accounting in
        [ label; Tables.i oks; Tables.i seats; Tables.i (seats - oks) ])
      [
        ("idempotent set (paper)", Types.Idempotent_set);
        ("naive counter", Types.Naive_counter);
      ]
  in
  Tables.print
    ~title:
      "E4b Idempotency ablation: 150 distinct reserves over a 15%-loss link with up to 5 \
       attempts each (duplicate deliveries happen)"
    ~header:[ "accounting"; "acks at clerk"; "seats consumed"; "phantom seats" ]
    rows

(* ------------------------------------------------------------------ *)
(* E5 — §3: message cost of the three primitives on the three patterns *)
(* ------------------------------------------------------------------ *)

type primitive = No_wait | Synchronization | Remote_transaction

let primitive_name = function
  | No_wait -> "no-wait"
  | Synchronization -> "sync send"
  | Remote_transaction -> "rpc"

(* The endpoint guardian plays the server side for every scenario.  The
   sync-send variants carry an explicit response port as an argument (the
   reply_to slot is occupied by the acknowledgement port), and responses
   themselves travel synchronized — under that primitive *every* transfer
   blocks for its ack, which is exactly where the extra messages and the
   serialization come from. *)
let e5_endpoint world ~at ~delegate_to =
  let name = fresh_name "e5_endpoint" in
  let items_seen = ref 0 in
  let def =
    {
      Runtime.def_name = name;
      provides = [ ([ Vtype.wildcard ], 1024) ];
      init =
        (fun ctx _ ->
          let rec loop () =
            (match Runtime.receive ctx [ Runtime.port ctx 0 ] with
            | `Timeout -> ()
            | `Msg (_, msg) -> (
                match (msg.Message.command, msg.Message.args) with
                | "item", _ -> incr items_seen
                | "item_sync", _ ->
                    incr items_seen;
                    Sync_send.acknowledge ctx msg
                | "item_rpc", _ ->
                    incr items_seen;
                    Rpc.serve_always ctx msg ~f:(fun _ _ -> ("item_done", []))
                | "request", _ -> (
                    match msg.Message.reply_to with
                    | Some reply -> Runtime.send ctx ~to_:reply "response" []
                    | None -> ())
                | "request_sync", [ Value.Portv resp ] ->
                    Sync_send.acknowledge ctx msg;
                    ignore (Sync_send.send ctx ~to_:resp "response" [])
                | "request_rpc", _ -> Rpc.serve_always ctx msg ~f:(fun _ _ -> ("response", []))
                | "confirm", _ -> (
                    match msg.Message.reply_to with
                    | Some reply ->
                        Runtime.send ctx ~to_:reply "confirmed" [ Value.int !items_seen ]
                    | None -> ())
                | "confirm_sync", [ Value.Portv resp ] ->
                    Sync_send.acknowledge ctx msg;
                    ignore (Sync_send.send ctx ~to_:resp "confirmed" [ Value.int !items_seen ])
                | "confirm_rpc", _ ->
                    Rpc.serve_always ctx msg ~f:(fun _ _ ->
                        ("confirmed", [ Value.int !items_seen ]))
                | "job", _ -> (
                    (* pattern 3: forward, keeping the original reply port,
                       so the worker answers the client directly *)
                    match delegate_to with
                    | Some target ->
                        Patterns.delegate_as ctx ~to_:target ~command:"request" ~args:[] msg
                    | None -> ())
                | "job_sync", [ Value.Portv resp ] -> (
                    Sync_send.acknowledge ctx msg;
                    match delegate_to with
                    | Some target ->
                        ignore
                          (Sync_send.send ctx ~to_:target "request_sync"
                             [ Value.port resp ])
                    | None -> ())
                | "job_rpc", _ -> (
                    match delegate_to with
                    | Some target ->
                        Rpc.serve_always ctx msg ~f:(fun _ _ ->
                            match
                              Rpc.call ctx ~to_:target ~timeout:(Clock.s 5) "request_rpc" []
                            with
                            | Rpc.Reply _ -> ("response", [])
                            | Rpc.Failure_msg _ | Rpc.Timeout ->
                                ("failure", [ Value.str "worker" ]))
                    | None -> ())
                | _ -> ()));
            loop ()
          in
          loop ());
      recover = None;
    }
  in
  Runtime.register_def world def;
  let g = Runtime.create_guardian world ~at ~def_name:name ~args:[] in
  List.hd (Runtime.guardian_ports g)

let e5_world () =
  Runtime.create_world ~seed:105
    ~topology:(Topology.full_mesh ~n:3 { Link.perfect with base_latency = Clock.ms 10 })
    ()

(* Run one (pattern, primitive) cell; returns (messages, completion ms). *)
let e5_cell ~pattern ~primitive =
  let world = e5_world () in
  let items = 8 in
  let worker = e5_endpoint world ~at:2 ~delegate_to:None in
  let endpoint = e5_endpoint world ~at:1 ~delegate_to:(Some worker) in
  let finish = ref 0 in
  Network.reset_stats (Runtime.network world);
  driver world ~at:0 (fun ctx ->
      (* sync-send cells receive the actual response on an explicit port *)
      let sync_request command =
        let resp = Runtime.new_port ctx [ Vtype.wildcard ] in
        ignore (Sync_send.send ctx ~to_:endpoint command [ Value.port (Port.name resp) ]);
        (match Sync_send.receive_synchronized ctx ~timeout:(Clock.s 5) [ resp ] with
        | `Msg _ | `Timeout -> ());
        Runtime.remove_port ctx resp
      in
      (match (pattern, primitive) with
      | `Request_response, No_wait -> (
          match
            Patterns.request_response ctx ~to_:endpoint ~timeout:(Clock.s 5) "request" []
          with
          | `Reply _ | `Timeout -> ())
      | `Request_response, Synchronization -> sync_request "request_sync"
      | `Request_response, Remote_transaction -> (
          match Rpc.call ctx ~to_:endpoint ~timeout:(Clock.s 5) "request_rpc" [] with
          | Rpc.Reply _ | Rpc.Failure_msg _ | Rpc.Timeout -> ())
      | `Stream_confirm, No_wait ->
          let batch = List.init items (fun i -> ("item", [ Value.int i ])) in
          ignore
            (Patterns.stream_then_confirm ctx ~to_:endpoint ~items:batch ~confirm:"confirm"
               ~timeout:(Clock.s 5) ())
      | `Stream_confirm, Synchronization ->
          List.iter
            (fun i -> ignore (Sync_send.send ctx ~to_:endpoint "item_sync" [ Value.int i ]))
            (List.init items Fun.id);
          sync_request "confirm_sync"
      | `Stream_confirm, Remote_transaction ->
          List.iter
            (fun i ->
              match
                Rpc.call ctx ~to_:endpoint ~timeout:(Clock.s 5) "item_rpc" [ Value.int i ]
              with
              | Rpc.Reply _ | Rpc.Failure_msg _ | Rpc.Timeout -> ())
            (List.init items Fun.id);
          (match Rpc.call ctx ~to_:endpoint ~timeout:(Clock.s 5) "confirm_rpc" [] with
          | Rpc.Reply _ | Rpc.Failure_msg _ | Rpc.Timeout -> ())
      | `Delegated, No_wait -> (
          (* ask the broker; the response comes directly from the worker *)
          match Patterns.request_response ctx ~to_:endpoint ~timeout:(Clock.s 5) "job" [] with
          | `Reply _ | `Timeout -> ())
      | `Delegated, Synchronization -> sync_request "job_sync"
      | `Delegated, Remote_transaction -> (
          match Rpc.call ctx ~to_:endpoint ~timeout:(Clock.s 5) "job_rpc" [] with
          | Rpc.Reply _ | Rpc.Failure_msg _ | Rpc.Timeout -> ()));
      finish := Runtime.now world);
  Runtime.run_for world (Clock.s 20);
  let net = Network.stats (Runtime.network world) in
  (net.Network.messages_sent, Clock.to_float_ms !finish)

let e5 () =
  let patterns =
    [
      (`Request_response, "1: request/response");
      (`Stream_confirm, "2: 8 requests, 1 response");
      (`Delegated, "3: delegated response");
    ]
  in
  let primitives = [ No_wait; Synchronization; Remote_transaction ] in
  let rows =
    List.concat_map
      (fun (pattern, pattern_label) ->
        List.map
          (fun primitive ->
            let messages, ms = e5_cell ~pattern ~primitive in
            [ pattern_label; primitive_name primitive; Tables.i messages; Tables.f1 ms ])
          primitives)
      patterns
  in
  Tables.print
    ~title:
      "E5  §3 send primitives vs the three exchange patterns (10ms links): the no-wait send \
       needs the fewest messages on every pattern"
    ~header:[ "pattern"; "primitive"; "messages"; "completion ms" ]
    rows

(* ------------------------------------------------------------------ *)
(* E6 — §3.3: transmitting abstract values between representations     *)
(* ------------------------------------------------------------------ *)

let e6 () =
  let rng = Rng.create ~seed:106 in
  let row size =
    let pairs =
      List.init size (fun i -> (Printf.sprintf "key%06d" i, Value.int (Rng.int rng 1_000_000)))
    in
    let hash_side = Assoc_mem.of_alist ~rep:Assoc_mem.Hash pairs in
    let wire = Transmit.to_value Assoc_mem.transmit_hash hash_side in
    let encoded = Codec.encode_exn wire in
    let tree_side = Transmit.of_value Assoc_mem.transmit_tree (Codec.decode_exn encoded) in
    let faithful = Assoc_mem.equal hash_side tree_side in
    (* virtual transfer time over a WAN at 1 MB/s with 30 ms latency *)
    let link = Link.wan in
    let bytes = String.length encoded in
    let transfer_ms =
      Clock.to_float_ms link.Link.base_latency
      +. (float_of_int bytes /. 1_000_000.0 *. 1000.0)
    in
    [
      Tables.i size;
      Tables.i bytes;
      Tables.f2 (float_of_int bytes /. float_of_int (Int.max 1 size));
      Tables.f1 transfer_ms;
      (if faithful then "yes" else "NO");
      (if Assoc_mem.tree_is_balanced tree_side then "yes" else "NO");
    ]
  in
  Tables.print
    ~title:
      "E6  §3.3 associative memory crossing representations (hash-table node -> AVL-tree \
       node) through the single external rep"
    ~header:[ "entries"; "wire bytes"; "bytes/entry"; "WAN transfer ms"; "faithful"; "balanced" ]
    (List.map row [ 10; 100; 1000; 5000 ]);
  (* Integer bounds enforcement (the 24-bit story). *)
  let in_bounds = Codec.encode ~config:Codec.config_1979 (Value.int 8_388_607) in
  let out_of_bounds = Codec.encode ~config:Codec.config_1979 (Value.int 8_388_608) in
  Tables.print ~title:"E6b §3.3 system-wide integer bounds (24-bit configuration)"
    ~header:[ "value"; "encodes" ]
    [
      [ "2^23 - 1"; (match in_bounds with Ok _ -> "yes" | Error _ -> "NO") ];
      [ "2^23"; (match out_of_bounds with Ok _ -> "yes (BUG)" | Error _ -> "rejected") ];
    ]

(* ------------------------------------------------------------------ *)
(* E7 — §2.2: permanence of effect across crashes                      *)
(* ------------------------------------------------------------------ *)

let e7_run ~disk =
  let config = { Runtime.default_config with disk } in
  let world =
    Runtime.create_world ~seed:107 ~topology:(Topology.full_mesh ~n:2 Link.perfect) ~config ()
  in
  let flight =
    Flight.create world ~at:0 ~flight:1 ~capacity:1000 ~service_time:(Clock.us 100) ()
  in
  let acked : (string * int) list ref = ref [] in
  let crashes = 5 and batch = 10 in
  driver world ~at:1 (fun ctx ->
      for c = 0 to crashes - 1 do
        for i = 0 to batch - 1 do
          let passenger = Printf.sprintf "p%d.%d" c i in
          let date = i mod 5 in
          match
            Rpc.call ctx ~to_:flight ~timeout:(Clock.ms 200) "reserve"
              [ Value.str passenger; Value.int date ]
          with
          | Rpc.Reply ("ok", _) -> acked := (passenger, date) :: !acked
          | Rpc.Reply _ | Rpc.Failure_msg _ | Rpc.Timeout -> ()
        done;
        Runtime.crash_node world 0;
        Runtime.restart_node world 0;
        Runtime.sleep ctx (Clock.ms 10)
      done);
  Runtime.run_for world (Clock.s 60);
  (* Which acknowledged reservations survived in the recovered store? *)
  let survived (passenger, date) =
    List.exists
      (fun g ->
        let store = Runtime.guardian_store g in
        (not (Store.is_crashed store))
        && Store.mem store ~key:(Printf.sprintf "r:%d:%s" date passenger))
      (Runtime.find_guardians world ~def_name:Flight.def_name)
  in
  let acked_list = !acked in
  let lost = List.filter (fun entry -> not (survived entry)) acked_list in
  let count name = Metrics.count (Metrics.counter (Runtime.metrics world) name) in
  (List.length acked_list, List.length lost, count "stable.salvaged", count "stable.corrupt")

let e7 () =
  let rows =
    List.map
      (fun (label, disk) ->
        let acked, lost, salvaged, quarantined = e7_run ~disk in
        [
          label;
          Tables.i acked;
          Tables.i (acked - lost);
          Tables.i lost;
          Tables.i salvaged;
          Tables.i quarantined;
        ])
      [ ("perfect", None); ("flaky", Some Disk.flaky); ("hostile", Some Disk.hostile) ]
  in
  Tables.print
    ~title:
      "E7  §2.2 permanence of effect: 50 acknowledged reserves across 5 node crashes; only rot \
       that takes a record and its mirror together can lose an acknowledged write"
    ~header:[ "disk"; "acked"; "survived"; "acked lost"; "salvaged"; "quarantined" ]
    rows

(* ------------------------------------------------------------------ *)
(* E8 — §3.4: the delivery contract                                    *)
(* ------------------------------------------------------------------ *)

let e8_run ~loss =
  let link = { (Link.lossy loss) with base_latency = Clock.ms 5; jitter = Clock.ms 5 } in
  let world =
    Runtime.create_world ~seed:108 ~topology:(Topology.full_mesh ~n:2 link) ()
  in
  (* A sink guardian with a tiny, slowly drained port so the buffer can
     overflow, plus a dead target to draw failure messages. *)
  let sink_name = fresh_name "e8_sink" in
  let received = ref [] in
  let sink_def =
    {
      Runtime.def_name = sink_name;
      provides = [ ([ Vtype.wildcard ], 8) ];
      init =
        (fun ctx _ ->
          let rec loop () =
            (match Runtime.receive ctx [ Runtime.port ctx 0 ] with
            | `Timeout -> ()
            | `Msg (_, msg) -> (
                match msg.Message.args with
                | [ Value.Int i ] -> received := i :: !received
                | _ -> ()));
            Runtime.sleep ctx (Clock.ms 2);
            loop ()
          in
          loop ());
      recover = None;
    }
  in
  Runtime.register_def world sink_def;
  let sink = Runtime.create_guardian world ~at:1 ~def_name:sink_name ~args:[] in
  let sink_port = List.hd (Runtime.guardian_ports sink) in
  let total = 200 in
  let failures = ref 0 in
  driver world ~at:0 (fun ctx ->
      let reply = Runtime.new_port ctx ~capacity:1024 [ Vtype.wildcard ] in
      for i = 0 to total - 1 do
        Runtime.send ctx ~to_:sink_port ~reply_to:(Port.name reply) "item" [ Value.int i ];
        Runtime.sleep ctx (Clock.ms 1)
      done;
      let rec drain () =
        match Runtime.receive ctx ~timeout:(Clock.s 2) [ reply ] with
        | `Msg (_, msg) ->
            if Message.is_failure msg then incr failures;
            drain ()
        | `Timeout -> ()
      in
      drain ());
  Runtime.run_for world (Clock.s 30);
  let arrived = List.rev !received in
  let inversions =
    let rec count acc = function
      | a :: (b :: _ as rest) -> count (if a > b then acc + 1 else acc) rest
      | [ _ ] | [] -> acc
    in
    count 0 arrived
  in
  let delivered = List.length arrived in
  (delivered, !failures, total - delivered - !failures, inversions)

let e8 () =
  let rows =
    List.map
      (fun loss ->
        let delivered, failures, silent, inversions = e8_run ~loss in
        [
          Tables.f2 loss;
          Tables.i delivered;
          Tables.i failures;
          Tables.i silent;
          Tables.i inversions;
        ])
      [ 0.0; 0.01; 0.1; 0.3 ]
  in
  Tables.print
    ~title:
      "E8  §3.4 delivery contract: 200 sends over a jittery link into a capacity-8 port \
       drained at 500/s; drops at a full port produce failure(...), link loss is silent, \
       jitter reorders"
    ~header:[ "link loss"; "delivered"; "failure msgs"; "silent loss"; "reorderings" ]
    rows

(* ------------------------------------------------------------------ *)
(* E9 — atomic multi-leg bookings (2PC) vs naive sequential booking     *)
(* ------------------------------------------------------------------ *)

(* Two-leg trips where the second leg is the scarce one (leg 1 has twice
   the seats): the naive booker reserves leg 1 first and discovers leg 2
   is full only afterwards, stranding the passenger with half a trip.  The
   two-phase itinerary aborts cleanly and releases the hold. *)
let e9_run ~atomic ~passengers =
  let world = Runtime.create_world ~seed:109 ~topology:(Topology.full_mesh ~n:4 Link.perfect) () in
  let scarce = 10 in
  let f1 =
    Flight.create world ~at:0 ~flight:1 ~capacity:(2 * scarce) ~waitlist_capacity:0
      ~service_time:(Clock.us 100) ()
  in
  let f2 =
    Flight.create world ~at:1 ~flight:2 ~capacity:scarce ~waitlist_capacity:0
      ~service_time:(Clock.us 100) ()
  in
  let itinerary = Dcp_airline.Itinerary.create world ~at:2 ~directory:[ (1, f1); (2, f2) ] () in
  let booked = ref 0 and stranded = ref 0 and refused = ref 0 in
  let command = if atomic then "book_trip" else "book_naive" in
  for i = 1 to passengers do
    driver world ~at:3 (fun ctx ->
        let legs =
          Value.list
            [ Value.tuple [ Value.int 1; Value.int 0 ]; Value.tuple [ Value.int 2; Value.int 0 ] ]
        in
        match
          Rpc.call ctx ~to_:itinerary ~timeout:(Clock.s 10) command
            [ Value.str (Printf.sprintf "p%d" i); legs ]
        with
        | Rpc.Reply ("booked", _) -> incr booked
        | Rpc.Reply ("stranded", _) -> incr stranded
        | Rpc.Reply _ | Rpc.Failure_msg _ | Rpc.Timeout -> incr refused)
  done;
  Runtime.run_for world (Clock.s 60);
  (!booked, !stranded, !refused)

let e9 () =
  let rows =
    List.concat_map
      (fun passengers ->
        List.map
          (fun atomic ->
            let booked, stranded, refused = e9_run ~atomic ~passengers in
            [
              Tables.i passengers;
              (if atomic then "2PC itinerary" else "naive sequential");
              Tables.i booked;
              Tables.i stranded;
              Tables.i refused;
            ])
          [ true; false ])
      [ 10; 20; 40 ]
  in
  Tables.print
    ~title:
      "E9  Atomic two-leg trips over 2PC vs naive sequential booking; leg 1 has 20 seats, leg 2 only 10 (stranded = passengers left holding half a trip)"
    ~header:[ "passengers"; "method"; "booked"; "stranded"; "refused clean" ]
    rows

(* ------------------------------------------------------------------ *)
(* E10 — §3.4: the price of ordering                                    *)
(* ------------------------------------------------------------------ *)

(* "If the order is important, processes must coordinate to achieve it":
   the Ordered channel (sequence numbers, retransmission, acks) vs bare
   no-wait sends, under increasing loss.  Bare sends are cheap and lossy
   and arrive shuffled; the channel pays transmissions and acks for
   exactly-once FIFO delivery. *)
let e10_cell ~loss ~ordered =
  let module Ordered = Dcp_primitives.Ordered in
  let link = { (Link.lossy loss) with base_latency = Clock.ms 2; jitter = Clock.ms 10 } in
  let world = Runtime.create_world ~seed:110 ~topology:(Topology.full_mesh ~n:2 link) () in
  let count = 100 in
  let received = ref [] in
  let port_cell = ref None in
  let receiver_name = fresh_name "e10_rx" in
  let receiver_def =
    {
      Runtime.def_name = receiver_name;
      provides = [ ([ Vtype.wildcard ], 256) ];
      init =
        (fun ctx _ ->
          if ordered then begin
            let receiver = Ordered.receiver ctx ~capacity:256 () in
            port_cell := Some (Ordered.receiver_port receiver);
            let rec pull () =
              match Ordered.recv receiver ~timeout:(Clock.s 2) () with
              | Some (Value.Int n) ->
                  received := n :: !received;
                  pull ()
              | Some _ -> pull ()
              | None -> ()
            in
            pull ()
          end
          else begin
            port_cell := Some (Port.name (Runtime.port ctx 0));
            let rec pull () =
              match Runtime.receive ctx ~timeout:(Clock.s 2) [ Runtime.port ctx 0 ] with
              | `Msg (_, { Message.args = [ Value.Int n ]; _ }) ->
                  received := n :: !received;
                  pull ()
              | `Msg _ -> pull ()
              | `Timeout -> ()
            in
            pull ()
          end);
      recover = None;
    }
  in
  Runtime.register_def world receiver_def;
  ignore (Runtime.create_guardian world ~at:1 ~def_name:receiver_name ~args:[]);
  let transmissions = ref 0 in
  driver world ~at:0 (fun ctx ->
      let rec wait_port () =
        match !port_cell with
        | Some port -> port
        | None ->
            Runtime.sleep ctx (Clock.ms 1);
            wait_port ()
      in
      let dest = wait_port () in
      if ordered then begin
        let sender = Ordered.connect ctx ~to_:dest ~retransmit_every:(Clock.ms 60) () in
        for i = 0 to count - 1 do
          Ordered.send sender (Value.int i)
        done;
        ignore (Ordered.flush sender ~timeout:(Clock.s 60));
        transmissions := Ordered.messages_sent sender;
        Ordered.close sender
      end
      else begin
        for i = 0 to count - 1 do
          Runtime.send ctx ~to_:dest "item" [ Value.int i ]
        done;
        transmissions := count
      end);
  Runtime.run_for world (Clock.s 90);
  let arrived = List.rev !received in
  let in_order = List.sort Int.compare arrived = arrived in
  let unique = List.sort_uniq Int.compare arrived in
  (!transmissions, List.length unique, List.length arrived - List.length unique, in_order)

let e10 () =
  let rows =
    List.concat_map
      (fun loss ->
        List.map
          (fun ordered ->
            let transmissions, delivered, dupes, in_order = e10_cell ~loss ~ordered in
            [
              Tables.f2 loss;
              (if ordered then "ordered channel" else "bare no-wait");
              Tables.i transmissions;
              Tables.i delivered;
              Tables.i dupes;
              (if in_order then "yes" else "NO");
            ])
          [ false; true ])
      [ 0.0; 0.05; 0.15; 0.3 ]
  in
  Tables.print
    ~title:
      "E10 §3.4 the price of ordering: 100 payloads over a jittery link; the Ordered channel (seq/ack/retransmit over no-wait) vs bare no-wait sends"
    ~header:[ "loss"; "method"; "data msgs sent"; "delivered"; "dup deliveries"; "in order" ]
    rows

let run_all () =
  e1 ();
  e2 ();
  e2b ();
  e3 ();
  e4_crashes ();
  e4_idempotency ();
  e5 ();
  e6 ();
  e7 ();
  e8 ();
  e9 ();
  e10 ()
