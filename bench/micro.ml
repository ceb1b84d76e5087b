(* Bechamel micro-benchmarks of the hot paths: codec, CRC, heap, WAL,
   tokens, and the full in-simulator send path.  One Test.make per row.

   Besides the console table, [run] writes BENCH_micro.json (schema
   documented in DESIGN.md §6) so the perf trajectory is machine-readable
   across PRs. *)

open Bechamel
open Toolkit
open Dcp_wire
module Heap = Dcp_sim.Heap
module Crc32 = Dcp_net.Crc32
module Packet = Dcp_net.Packet
module Wal = Dcp_stable.Wal
module Rng = Dcp_rng.Rng
module Runtime = Dcp_core.Runtime
module Topology = Dcp_net.Topology
module Clock = Dcp_sim.Clock
module Trace = Dcp_sim.Trace

let sample_value =
  Value.record
    [
      ("command", Value.str "reserve");
      ("args", Value.list [ Value.int 123456; Value.str "passenger-007"; Value.int 42 ]);
      ("reply", Value.option (Some (Value.port (Port_name.make ~node:1 ~guardian:2 ~index:3 ~uid:4))));
    ]

let sample_encoded = Codec.encode_exn sample_value
let kilobyte = String.init 1024 (fun i -> Char.chr (i mod 256))
let bytes64 = String.init 64 (fun i -> Char.chr ((i * 7) mod 256))
let fourkib = String.init 4096 (fun i -> Char.chr ((i * 13) mod 256))

let test_codec_encode =
  Test.make ~name:"codec.encode message" (Staged.stage (fun () -> Codec.encode_exn sample_value))

let test_codec_encode_reused =
  Test.make ~name:"codec.encode message (reused encoder)"
    (Staged.stage
       (let enc = Codec.encoder () in
        fun () -> Codec.encode_with_exn enc sample_value))

let test_codec_decode =
  Test.make ~name:"codec.decode message" (Staged.stage (fun () -> Codec.decode_exn sample_encoded))

let test_crc32_64 =
  Test.make ~name:"crc32 64B" (Staged.stage (fun () -> Crc32.digest_string bytes64))

let test_crc32 =
  Test.make ~name:"crc32 1KiB" (Staged.stage (fun () -> Crc32.digest_string kilobyte))

let test_crc32_4k =
  Test.make ~name:"crc32 4KiB" (Staged.stage (fun () -> Crc32.digest_string fourkib))

let test_fragment =
  Test.make ~name:"packet.fragment 1KiB mtu=256"
    (Staged.stage (fun () -> Packet.fragment ~src:0 ~dst:1 ~msg_id:1 ~mtu:256 kilobyte))

let test_fragment_reassemble =
  Test.make ~name:"packet.fragment+reassemble 1KiB mtu=256"
    (Staged.stage (fun () ->
         let frags = Packet.fragment ~src:0 ~dst:1 ~msg_id:1 ~mtu:256 kilobyte in
         let r = Packet.Reassembly.create () in
         List.iter (fun f -> ignore (Packet.Reassembly.offer r ~now:0 f)) frags))

let test_heap =
  Test.make ~name:"heap push+pop x64"
    (Staged.stage (fun () ->
         let h = Heap.create ~cmp:Int.compare in
         for i = 0 to 63 do
           Heap.push h ((i * 37) mod 64)
         done;
         for _ = 0 to 63 do
           ignore (Heap.pop h)
         done))

(* Depth matters to the sift: 1k keys is ~5 levels of the 4-ary heap
   (vs ~10 of a binary one), so this row tracks the per-level cost the
   shallow x64 row can hide. *)
let test_heap_1k =
  Test.make ~name:"heap push+pop x1k"
    (Staged.stage (fun () ->
         let h = Heap.create ~cmp:Int.compare in
         for i = 0 to 1023 do
           Heap.push h ((i * 997) mod 1024)
         done;
         for _ = 0 to 1023 do
           ignore (Heap.pop h)
         done))

let test_wal_append =
  Test.make ~name:"wal.append 64B"
    (Staged.stage
       (let wal = Wal.create () in
        let payload = String.make 64 'x' in
        fun () -> ignore (Wal.append wal payload)))

(* Replay of a standing 1k-record log: with the verified-prefix cache this
   is pure iteration (each CRC was checked once, on the first replay);
   without it every call re-digests all 1000 records. *)
let test_wal_replay_1k =
  Test.make ~name:"wal.replay 1k"
    (Staged.stage
       (let wal = Wal.create () in
        let payload = String.make 64 'y' in
        let () =
          for _ = 1 to 1000 do
            ignore (Wal.append wal payload)
          done
        in
        fun () ->
          let n = ref 0 in
          Wal.replay wal (fun _ _ -> incr n)))

(* Recovery of a checkpointed store: crash + rebuild from the newest
   checkpoint plus the log suffix.  The 1k and 10k rows must track each
   other — recovery is O(suffix), and the suffix length is bounded by
   [checkpoint_every], not by history. *)
let recover_bench entries =
  let store = Dcp_stable.Store.create ~checkpoint_every:100 () in
  let () =
    for i = 1 to entries do
      Dcp_stable.Store.set store ~key:(string_of_int (i mod 250)) (string_of_int i)
    done;
    Dcp_stable.Store.flush store
  in
  fun () ->
    Dcp_stable.Store.crash store;
    ignore (Dcp_stable.Store.recover store)

let test_wal_recover_1k =
  Test.make ~name:"wal.recover (1k entries, checkpointed)" (Staged.stage (recover_bench 1_000))

let test_wal_recover_10k =
  Test.make ~name:"wal.recover (10k entries, checkpointed)" (Staged.stage (recover_bench 10_000))

(* Framing a 250-key table as a CRC'd checkpoint blob plus compacting the
   log prefix — the cost a guardian pays every [checkpoint_every]
   mutations. *)
let test_checkpoint_write =
  Test.make ~name:"checkpoint.write (250 keys)"
    (Staged.stage
       (let store = Dcp_stable.Store.create () in
        let () =
          for i = 1 to 1_000 do
            Dcp_stable.Store.set store ~key:(string_of_int (i mod 250)) (string_of_int i)
          done
        in
        fun () -> Dcp_stable.Store.checkpoint store))

let test_token =
  Test.make ~name:"token seal+unseal"
    (Staged.stage (fun () ->
         let token = Token.seal ~secret:0x1234L ~owner:7 ~obj:99 in
         ignore (Token.unseal ~secret:0x1234L ~owner:7 token)))

let test_rng =
  Test.make ~name:"rng.int"
    (Staged.stage
       (let rng = Rng.create ~seed:1 in
        fun () -> ignore (Rng.int rng 1_000_000)))

(* One full exchange through the runtime per run: a fresh client guardian
   sends to a long-lived echo guardian and receives the reply; the engine
   drains to quiescence.  Covers guardian creation, both codec directions,
   routing, port machinery and two process switches. *)
let test_send_path =
  Test.make ~name:"runtime round-trip (+guardian)"
    (Staged.stage (Echo.round_trip_world ~seed:1 ~idle:0 ~prefix:"bench" ~pings:1 ~args:[]))

(* Same round trip against a world that already hosts 1k guardians on the
   node: with any O(#guardians) work left on the delivery path this row
   collapses; with the indexed hot path it tracks the row above. *)
let test_send_path_1k =
  Test.make ~name:"runtime round-trip @1k guardians"
    (Staged.stage (Echo.round_trip_world ~seed:2 ~idle:999 ~prefix:"bench" ~pings:1 ~args:[]))

(* The first of the per-layer rows: one local [Runtime.send] on its own,
   trace on — transmit check, encode, the deferred trace record, store
   flush and the delivery timer it schedules.  The deliveries never run;
   a fresh world every [batch] sends keeps the queue bounded, and its
   set-up is spread over those sends. *)
let test_layer_send =
  Test.make ~name:"layer.send"
    (Staged.stage
       (let batch = 1024 in
        let fresh () =
          let world =
            Runtime.create_world ~seed:3
              ~topology:(Topology.full_mesh ~n:1 Dcp_net.Link.perfect)
              ()
          in
          let ctx = ref None in
          Runtime.register_def world
            {
              Runtime.def_name = "bench_sender";
              provides = [ ([ Vtype.wildcard ], 64) ];
              init = (fun c _ -> ctx := Some c);
              recover = None;
            };
          let g = Runtime.create_guardian world ~at:0 ~def_name:"bench_sender" ~args:[] in
          Runtime.run world;
          (Option.get !ctx, List.hd (Runtime.guardian_ports g))
        in
        let args = [ Value.int 7; Value.str (String.make 32 'p') ] in
        let current = ref (fresh ()) and sent = ref 0 in
        fun () ->
          if !sent = batch then begin
            current := fresh ();
            sent := 0
          end;
          incr sent;
          let ctx, target = !current in
          Runtime.send ctx ~to_:target ~reply_to:target "ping" args))

(* The pure half of one anti-entropy round: merge-diff of two 1k-entry
   key-sorted digests.  This is what every replica runs per received
   digest, so its cost bounds sync CPU at scale. *)
let test_reconcile_diff =
  Test.make ~name:"reconcile.diff 1k entries"
    (Staged.stage
       (let module Reconcile = Dcp_primitives.Reconcile in
        let claimed =
          List.init 1000 (fun i -> (Printf.sprintf "key%04d" i, ((i mod 7) + 1, i mod 3)))
        in
        let held =
          List.init 1000 (fun i -> (Printf.sprintf "key%04d" i, ((i mod 5) + 1, i mod 3)))
        in
        fun () -> ignore (Reconcile.diff ~claimed ~held)))

let all_tests =
  [
    test_codec_encode;
    test_codec_encode_reused;
    test_codec_decode;
    test_crc32_64;
    test_crc32;
    test_crc32_4k;
    test_fragment;
    test_fragment_reassemble;
    test_heap;
    test_heap_1k;
    test_wal_append;
    test_wal_replay_1k;
    test_wal_recover_1k;
    test_wal_recover_10k;
    test_checkpoint_write;
    test_token;
    test_rng;
    test_reconcile_diff;
    test_send_path;
    test_send_path_1k;
    test_layer_send;
  ]

(* ---- exact allocation rows ----

   Minor-heap words per call of the wire stages a message goes through.
   Unlike host time these are exact functions of the code and the
   compiler, the same on every run, so the bench gate pins them at 0%.  The
   subjects are fixed: the envelope of one 100-entry sync_digest, the
   message anti-entropy sends most, and one scd_status, the answer to
   every ask SCD-broadcast sends (an scd_ask carries the same arguments,
   so these rows cost both), as member 2 of 5 sends it. *)

let scd_status_args =
  let marks base = Value.list (List.init 5 (fun j -> Value.int (base + j))) in
  [ Value.int 2; Value.int 1234; marks 40; marks 30 ]

(* Two guardians on a 2-node perfect-link world: the receiver loops on a
   port typed like an SCD member's, the sender is idle.  The returned
   function is one round trip: a remote send of scd_status from the
   sender, run until the receiver has taken it off its port. *)
let scd_status_round_trip () =
  let module Scd = Dcp_primitives.Scd in
  let world =
    Runtime.create_world ~seed:1 ~topology:(Topology.full_mesh ~n:2 Dcp_net.Link.perfect) ()
  in
  let sender = ref None in
  Runtime.register_def world
    {
      Runtime.def_name = "status_sender";
      provides = [];
      init = (fun ctx _ -> sender := Some ctx);
      recover = None;
    };
  Runtime.register_def world
    {
      Runtime.def_name = "status_receiver";
      provides = [ (Scd.signatures, 64) ];
      init =
        (fun ctx _ ->
          let rec loop () =
            ignore (Runtime.receive ctx [ Runtime.port ctx 0 ]);
            loop ()
          in
          loop ());
      recover = None;
    };
  let receiver = Runtime.create_guardian world ~at:1 ~def_name:"status_receiver" ~args:[] in
  ignore (Runtime.create_guardian world ~at:0 ~def_name:"status_sender" ~args:[]);
  Runtime.run world;
  let ctx = Option.get !sender and to_ = List.hd (Runtime.guardian_ports receiver) in
  fun () ->
    Runtime.send ctx ~to_ "scd_status" scd_status_args;
    Runtime.run world

(* echo_local's round trip with one pair on one node: a ping of (int,
   32-byte string) with a reply port, its pong and the client's 1 s timed
   receive, in minor words: a client of 2,000 round trips less one of
   1,000, over 1,000.  Each world runs one client first, which grows the
   event heap to the size its cancelled timeouts reach. *)
let local_round_trip_words () =
  let args = [ Value.int 7; Value.str (String.make 32 'p') ] in
  let words pings =
    let client = Echo.round_trip_world ~seed:1 ~idle:0 ~prefix:"alloc" ~pings ~args in
    client ();
    let before = Gc.minor_words () in
    client ();
    Gc.minor_words () -. before
  in
  let one = words 1000 in
  (words 2000 -. one) /. 1000.

(* A process blocked in a timed receive on one port.  The returned
   function is an enqueue that resumes it, through the process's next
   receive, which blocks again; 4,096 calls first grow the event heap to
   the size its cancelled timers reach before a purge. *)
let blocked_receive () =
  let module Port = Dcp_core.Port in
  let module Process = Dcp_core.Process in
  let module Engine = Dcp_sim.Engine in
  let engine = Engine.create () in
  let port =
    Port.create
      ~name:(Port_name.make ~node:0 ~guardian:0 ~index:0 ~uid:0)
      ~ptype:[ Vtype.wildcard ] ~capacity:16
  in
  let ports = [ port ] and timeout = Some (Clock.s 1) in
  ignore
    (Process.spawn engine ~name:"receiver" (fun () ->
         let rec loop () =
           ignore (Port.receive engine ~ports ~timeout);
           loop ()
         in
         loop ()));
  Engine.run_for engine 0;
  let msg = Dcp_core.Message.make ~sent_at:0 "ping" [] in
  let enqueue () = Port.enqueue port msg in
  for _ = 1 to 4096 do
    ignore (enqueue ())
  done;
  enqueue

(* A replica's table of these entries, each value its counter. *)
let replica_table entries =
  let module Reconcile = Dcp_primitives.Reconcile in
  List.fold_left
    (fun held (key, stamp) ->
      match Reconcile.update held ~key ~value:(Value.int (fst stamp)) ~stamp with
      | Some (held, _) -> held
      | None -> held)
    Reconcile.empty entries

(* A replica on node 1 of a 2-node perfect-link world holding [table],
   sent there in one sync_delta, and on node 0 a guardian whose port
   takes whatever the replica answers.  The returned function is one
   digest of [claimed] from that guardian, which names the replica's own
   hash as believed, run until the replica has handled it and the guardian
   has taken any answer off its port. *)
let replica_digest_round ~table ~claimed () =
  let module Replica = Dcp_primitives.Replica in
  let module Reconcile = Dcp_primitives.Reconcile in
  let world =
    Runtime.create_world ~seed:1 ~topology:(Topology.full_mesh ~n:2 Dcp_net.Link.perfect) ()
  in
  let replica =
    List.hd (Replica.create_group world ~nodes:[ 1 ] ~sync_every:(Clock.s 100_000) ())
  in
  let peer = ref None in
  Runtime.register_def world
    {
      Runtime.def_name = "digest_peer";
      provides = [ ([ Vtype.wildcard ], 64) ];
      init =
        (fun ctx _ ->
          peer := Some ctx;
          let rec loop () =
            ignore (Runtime.receive ctx [ Runtime.port ctx 0 ]);
            loop ()
          in
          loop ());
      recover = None;
    };
  let peer_guardian = Runtime.create_guardian world ~at:0 ~def_name:"digest_peer" ~args:[] in
  let reply_to = List.hd (Runtime.guardian_ports peer_guardian) in
  let step = Clock.ms 1 in
  Runtime.run_for world step;
  let ctx = Option.get !peer in
  let hash entries = Reconcile.hash_string (Reconcile.table_hash entries) in
  Runtime.send_command ctx ~to_:replica ~reply_to Replica.sync_delta
    (List.map (fun (key, stamp) -> (key, Value.int (fst stamp), stamp)) table, hash table);
  Runtime.run_for world step;
  let run, _ =
    Reconcile.take_window ~budget:Reconcile.default_budget (replica_table claimed) ~from:""
  in
  let digest = ("", None, run, hash claimed, Some (hash table)) in
  fun () ->
    Runtime.send_command ctx ~to_:replica ~reply_to Replica.sync_digest digest;
    Runtime.run_for world step

let alloc_rows () =
  let module Replica = Dcp_primitives.Replica in
  let module Reconcile = Dcp_primitives.Reconcile in
  let module Message = Dcp_core.Message in
  let table = List.init 100 (fun i -> (Printf.sprintf "key%04d" i, (i + 1, i mod 8))) in
  let one_newer =
    List.map (fun (key, (c, o)) -> (key, if c = 50 then (1000, o) else (c, o))) table
  in
  let args =
    [
      Value.str "";
      Value.option None;
      Value.list (List.map Reconcile.entry_value table);
      Reconcile.hash_value (Reconcile.table_hash table);
      Value.option (Some (Reconcile.hash_value 0L));
    ]
  in
  let port = Port_name.make ~node:1 ~guardian:2 ~index:0 ~uid:3 in
  let envelope =
    Message.envelope ~target:port
      (Message.make ~reply_to:port ~sent_at:(Clock.ms 250) "sync_digest" args)
  in
  let encoded = Codec.encode_exn envelope in
  let encoder = Codec.encoder () in
  (* The same digest as a typed command, its entries a run of the table's
     entry bytes as a replica sends it, read as the replica's own port
     reads it. *)
  let held = replica_table table in
  let digest =
    ( "",
      None,
      fst (Reconcile.take_window ~budget:Reconcile.default_budget held ~from:""),
      Reconcile.hash_string (Reconcile.table_hash table),
      Some (Reconcile.hash_string 0L) )
  in
  let replica_port = Some (fun _ -> Some Replica.commands) in
  let status = Message.make ~sent_at:(Clock.ms 250) "scd_status" scd_status_args in
  let status_body = Codec.encode_exn (Message.envelope ~target:port status) in
  let mtu = Runtime.default_config.Runtime.mtu in
  let reassembly = Packet.Reassembly.create () in
  let rec offer_intact = function
    | [] -> ()
    | f :: rest ->
        if Packet.intact f then ignore (Packet.Reassembly.offer reassembly ~now:0 f);
        offer_intact rest
  in
  (* A send's trace record, on a fresh trace as a traced world's shard
     starts with one (its ring's first doublings included), and on an
     untraced world's counting trace. *)
  let traced = Trace.create () and untraced = Trace.counting () in
  let record_send trace () =
    Trace.record_deferred trace ~at:0 ~category:"send" ~label:"status_sender#1" status_body
  in
  let engine = Dcp_sim.Engine.create () in
  (* The network schedule: one send of the status body over a perfect
     link to a handler that drops it, and the engine step that delivers
     it (fragment, CRC at both ends, Link.transmit, the scheduled event,
     Reassembly.offer). *)
  let net_engine = Dcp_sim.Engine.create () in
  let network =
    Dcp_net.Network.create ~engine:net_engine ~rng:(Rng.create ~seed:1)
      ~topology:(Topology.full_mesh ~n:2 Dcp_net.Link.perfect)
      ~mtu ()
  in
  Dcp_net.Network.set_handler network 1 (fun ~src:_ _ -> ());
  let registry = Transmit.registry () in
  let ping_args = [ Value.int 7; Value.str (String.make 32 'p') ] in
  let calls = 1000 in
  (* One call first, so a scratch buffer that grows does so untimed. *)
  let words_per_call f =
    ignore (Sys.opaque_identity (f ()));
    let before = Gc.minor_words () in
    for _ = 1 to calls do
      ignore (Sys.opaque_identity (f ()))
    done;
    (Gc.minor_words () -. before) /. float_of_int calls
  in
  let rows =
    [
      ( "alloc.codec.encoded_size sync_digest",
        words_per_call (fun () -> Codec.encoded_size envelope) );
      ( "alloc.codec.encode_with sync_digest",
        words_per_call (fun () -> Codec.encode_with encoder envelope) );
      ("alloc.codec.decode sync_digest", words_per_call (fun () -> Codec.decode encoded));
      ( "alloc.command.encode sync_digest",
        words_per_call (fun () ->
            Message.command_to_wire encoder ~target:port ~reply_to:port ~sent_at:(Clock.ms 250)
              Replica.sync_digest digest) );
      ( "alloc.command.decode sync_digest",
        words_per_call (fun () ->
            Message.of_wire ~config:Codec.default_config ?commands:replica_port encoded) );
      ( "alloc.vtype.check_message sync_digest",
        words_per_call (fun () ->
            Vtype.check_message Replica.port_type ~command:"sync_digest" args) );
      ( "alloc.message.encode scd_status",
        words_per_call (fun () -> Message.to_wire encoder ~target:port status) );
      ( "alloc.message.decode scd_status",
        words_per_call (fun () -> Message.of_wire ~config:Codec.default_config status_body) );
      ( "alloc.packet.fragment+reassemble scd_status",
        words_per_call (fun () ->
            offer_intact (Packet.fragment ~src:0 ~dst:1 ~msg_id:0 ~mtu status_body)) );
      ( "alloc.network.send+deliver scd_status",
        words_per_call (fun () ->
            Dcp_net.Network.send network ~src:0 ~dst:1 status_body;
            Dcp_sim.Engine.step net_engine) );
      ("alloc.trace.record_deferred traced", words_per_call (record_send traced));
      ("alloc.trace.record_deferred untraced", words_per_call (record_send untraced));
      ("alloc.round-trip scd_status", words_per_call (scd_status_round_trip ()));
      ("alloc.round-trip local timed", local_round_trip_words ());
      ( "alloc.engine.schedule+step",
        words_per_call (fun () ->
            ignore (Dcp_sim.Engine.schedule_after engine ~delay:1 ignore);
            Dcp_sim.Engine.step engine) );
      ("alloc.port.enqueue+resume timed", words_per_call (blocked_receive ()));
      ( "alloc.reconcile.update one key newer",
        words_per_call (fun () ->
            Reconcile.update held ~key:"key0050" ~value:(Value.int 1000) ~stamp:(1000, 2)) );
      ( "alloc.replica.digest equal window",
        words_per_call (replica_digest_round ~table ~claimed:table ()) );
      ( "alloc.replica.digest one key newer",
        words_per_call (replica_digest_round ~table ~claimed:one_newer ()) );
      ( "alloc.transmit.check_all ping",
        words_per_call (fun () -> Transmit.check_all registry ping_args) );
    ]
  in
  List.map
    (fun (name, words) ->
      Printf.printf "  %-40s %12.1f words\n%!" name words;
      (name ^ " (words)", Some words))
    rows

(* ---- deterministic replica macro rows ----

   Whole-protocol cost of anti-entropy convergence, measured in virtual
   units: a 32-replica group on a 10%-loss LAN, 60 keys written through
   random replicas, then probed until every mirrored key → stamp table is
   identical; then 10 s more, whose sync messages are the idle cost of a
   converged group (keepalives, once every replica knows its peers agree).
   Virtual time, byte and message counts are pure functions of the seed —
   the same number on every run and every machine — so bench_diff pins
   them at 0%: any protocol change that alters convergence behaviour or
   sync cost trips the gate. *)
let replica_rows () =
  let module Replica = Dcp_primitives.Replica in
  let module Rpc = Dcp_primitives.Rpc in
  let module Metrics = Dcp_sim.Metrics in
  let n = 32 in
  let keys = 60 in
  let horizon = Clock.s 2 in
  let world =
    Runtime.create_world ~seed:11
      ~topology:(Topology.full_mesh ~n:(n + 1) (Dcp_net.Link.lossy 0.1))
      ()
  in
  let replicas =
    Array.of_list
      (Replica.create_group world
         ~nodes:(List.init n Fun.id)
         ~sync_every:(Clock.ms 250) ~fanout:2 ~byte_budget:2048 ())
  in
  let driver_def =
    {
      Runtime.def_name = "bench_replica_driver";
      provides = [];
      init =
        (fun ctx _ ->
          Runtime.sleep ctx (Clock.ms 50);
          for i = 1 to keys do
            (match
               Rpc.call ctx
                 ~to_:replicas.(i mod n)
                 ~timeout:(Clock.ms 500) ~attempts:3 ~request_id:(4_000_000_000 + i) "write"
                 [ Value.str (Printf.sprintf "key%02d" i); Value.int i ]
             with
            | Rpc.Reply _ | Rpc.Failure_msg _ | Rpc.Timeout -> ());
            Runtime.sleep ctx (Clock.ms 25)
          done);
      recover = None;
    }
  in
  Runtime.register_def world driver_def;
  ignore (Runtime.create_guardian world ~at:n ~def_name:"bench_replica_driver" ~args:[]);
  Runtime.run_for world horizon;
  let tables () =
    List.map
      (fun g -> Replica.table_in_store (Runtime.guardian_store g))
      (Runtime.find_guardians world ~def_name:Replica.def_name)
  in
  let converged () =
    match tables () with
    | [] -> false
    | reference :: rest ->
        List.length reference = keys && List.for_all (fun t -> t = reference) rest
  in
  let step = Clock.ms 100 in
  let rec probe i =
    if converged () then Some i
    else if i >= 1000 then None
    else begin
      Runtime.run_for world step;
      probe (i + 1)
    end
  in
  let convergence_ms =
    match probe 0 with
    | Some _ -> (Runtime.now world - horizon) / Clock.ms 1
    | None -> -1
  in
  let metric name = Metrics.count (Metrics.counter (Runtime.metrics world) name) in
  let sync_bytes = metric Replica.metric_sync_bytes in
  let idle_from = metric Replica.metric_sync_msgs in
  Runtime.run_for world (Clock.s 10);
  let idle_msgs = metric Replica.metric_sync_msgs - idle_from in
  Printf.printf "  %-32s %12.1f virtual ms\n%!" "replica.convergence 32x lossy"
    (float_of_int convergence_ms);
  Printf.printf "  %-32s %12.1f bytes\n%!" "replica.sync bytes to converge" (float_of_int sync_bytes);
  Printf.printf "  %-32s %12.1f msgs\n%!" "replica.idle sync msgs 32x 10 s"
    (float_of_int idle_msgs);
  [
    ("replica.convergence 32x lossy (virtual ms)", Some (float_of_int convergence_ms));
    ("replica.sync bytes to converge (bytes)", Some (float_of_int sync_bytes));
    ("replica.idle sync msgs 32x 10 s (msgs)", Some (float_of_int idle_msgs));
  ]

(* ---- deterministic message-cost rows ----

   The paper's primitive-cost comparison, §3: what one client-visible
   operation costs in messages on the wire.  A synchronized send is two
   messages (payload + ack); a remote procedure call is two (request +
   reply); an SCD-register write on an n-member group is the broadcast to
   the other members, the client exchange, and its share of the status
   gossip that drives the delivery frontier.  Perfect links and pinned
   seeds make every count an exact function of the code, so the bench gate
   pins these rows at threshold 1. *)
let sendcost_rows () =
  let module Rpc = Dcp_primitives.Rpc in
  let module Sync_send = Dcp_primitives.Sync_send in
  let module Register = Dcp_primitives.Register in
  let module Snapshot = Dcp_primitives.Snapshot in
  let module Network = Dcp_net.Network in
  let module Message = Dcp_core.Message in
  let ops = 20 in
  let measure ctx body =
    let net = Runtime.network (Runtime.ctx_world ctx) in
    let before = (Network.stats net).Network.messages_sent in
    body ();
    let after = (Network.stats net).Network.messages_sent in
    float_of_int (after - before) /. float_of_int ops
  in
  let driver world ~at ~name body =
    let def =
      { Runtime.def_name = name; provides = []; init = (fun ctx _ -> body ctx); recover = None }
    in
    Runtime.register_def world def;
    ignore (Runtime.create_guardian world ~at ~def_name:name ~args:[])
  in
  (* sync_send: a cooperating receiver acknowledges each message. *)
  let sync_cost =
    let world =
      Runtime.create_world ~seed:17 ~topology:(Topology.full_mesh ~n:2 Dcp_net.Link.perfect) ()
    in
    let receiver =
      {
        Runtime.def_name = "bench_sync_target";
        provides = [ ([ Vtype.wildcard ], 16) ];
        init =
          (fun ctx _ ->
            let port = Runtime.port ctx 0 in
            let rec loop () =
              (match Runtime.receive ctx [ port ] with
              | `Timeout -> ()
              | `Msg (_, msg) -> Sync_send.acknowledge ctx msg);
              loop ()
            in
            loop ());
        recover = None;
      }
    in
    Runtime.register_def world receiver;
    let target =
      List.hd
        (Runtime.guardian_ports
           (Runtime.create_guardian world ~at:0 ~def_name:"bench_sync_target" ~args:[]))
    in
    let cost = ref 0.0 in
    driver world ~at:1 ~name:"bench_sync_driver" (fun ctx ->
        Runtime.sleep ctx (Clock.ms 50);
        cost :=
          measure ctx (fun () ->
              for i = 1 to ops do
                ignore (Sync_send.send ctx ~to_:target "note" [ Value.int i ])
              done));
    Runtime.run_for world (Clock.s 5);
    !cost
  in
  (* rpc: request out, reply back. *)
  let rpc_cost =
    let world =
      Runtime.create_world ~seed:19 ~topology:(Topology.full_mesh ~n:2 Dcp_net.Link.perfect) ()
    in
    let server =
      {
        Runtime.def_name = "bench_rpc_server";
        provides = [ ([ Vtype.wildcard ], 16) ];
        init =
          (fun ctx _ ->
            let port = Runtime.port ctx 0 in
            let rec loop () =
              (match Runtime.receive ctx [ port ] with
              | `Timeout -> ()
              | `Msg (_, msg) -> (
                  match (msg.Message.command, msg.Message.args, msg.Message.reply_to) with
                  | "ping", [ Value.Int rid ], Some reply ->
                      Runtime.send ctx ~to_:reply "pong" [ Value.int rid ]
                  | _ -> ()));
              loop ()
            in
            loop ());
        recover = None;
      }
    in
    Runtime.register_def world server;
    let target =
      List.hd
        (Runtime.guardian_ports
           (Runtime.create_guardian world ~at:0 ~def_name:"bench_rpc_server" ~args:[]))
    in
    let cost = ref 0.0 in
    driver world ~at:1 ~name:"bench_rpc_driver" (fun ctx ->
        Runtime.sleep ctx (Clock.ms 50);
        cost :=
          measure ctx (fun () ->
              for i = 1 to ops do
                ignore
                  (Rpc.call ctx ~to_:target ~timeout:(Clock.s 1) ~attempts:1
                     ~request_id:(4_300_000_000 + i) "ping" [])
              done));
    Runtime.run_for world (Clock.s 5);
    !cost
  in
  (* An SCD-object write on an n-member group: the broadcast, the client
     exchange and the status gossip share over the acked-write window.
     Called for the register's write (5 members) and for the snapshot
     object's update (4 members), whose group serves no per-key reads, so
     its row isolates the pure update/gossip cost at a different size. *)
  let scd_write_cost ~seed ~members ~driver_name ~create_group ~write =
    let world =
      Runtime.create_world ~seed
        ~topology:(Topology.full_mesh ~n:(members + 1) Dcp_net.Link.perfect)
        ()
    in
    let ports =
      Array.of_list
        (create_group world ~nodes:(List.init members Fun.id) ~introduce_at:members)
    in
    let cost = ref 0.0 in
    driver world ~at:members ~name:driver_name (fun ctx ->
        (* Past the bootstrap: the measured window holds only writes and
           steady-state gossip. *)
        Runtime.sleep ctx (Clock.s 2);
        cost :=
          measure ctx (fun () ->
              for i = 1 to ops do
                ignore
                  (write ctx ports.(i mod members) ~key:(Printf.sprintf "k%d" (i mod 4))
                     ~value:(Value.int i))
              done));
    Runtime.run_for world (Clock.s 30);
    !cost
  in
  let scd_cost =
    scd_write_cost ~seed:23 ~members:5 ~driver_name:"bench_scd_driver"
      ~create_group:(fun world ~nodes ~introduce_at ->
        Register.create_group world ~nodes ~introduce_at ())
      ~write:(fun ctx register ~key ~value ->
        Register.write ctx ~register ~key ~value ~timeout:(Clock.s 2))
  in
  let snapshot_cost =
    scd_write_cost ~seed:29 ~members:4 ~driver_name:"bench_snapshot_driver"
      ~create_group:(fun world ~nodes ~introduce_at ->
        Snapshot.create_group world ~nodes ~introduce_at ())
      ~write:(fun ctx snapshot ~key ~value ->
        Snapshot.update ctx ~snapshot ~key ~value ~timeout:(Clock.s 2))
  in
  Printf.printf "  %-40s %12.1f msgs/op\n%!" "sendcost.sync_send (pair)" sync_cost;
  Printf.printf "  %-40s %12.1f msgs/op\n%!" "sendcost.rpc (pair)" rpc_cost;
  Printf.printf "  %-40s %12.1f msgs/op\n%!" "sendcost.scd register write (5 members)" scd_cost;
  Printf.printf "  %-40s %12.1f msgs/op\n%!" "sendcost.scd snapshot update (4 members)" snapshot_cost;
  [
    ("sendcost.sync_send (pair) (msgs/op)", Some sync_cost);
    ("sendcost.rpc (pair) (msgs/op)", Some rpc_cost);
    ("sendcost.scd register write (5 members) (msgs/op)", Some scd_cost);
    ("sendcost.scd snapshot update (4 members) (msgs/op)", Some snapshot_cost);
  ]

let json_path = "BENCH_micro.json"

(* Estimates keep the 0.1 ns precision the file has always carried. *)
let write_json ?(path = json_path) rows =
  let open Dcp_json.Json in
  let row (name, est) =
    Obj
      [
        ("name", Str name);
        ( "ns_per_op",
          match est with Some v -> Num (float_of_string (Printf.sprintf "%.1f" v)) | None -> Null );
      ]
  in
  to_file path
    (Obj
       [
         ("schema", Str "dcp.bench.micro/v1");
         ("unit", Str "ns_per_op");
         ("results", Arr (List.map row rows));
       ])

(* One bechamel pass over [all_tests], silent: (name, ns/run option) in
   test order. *)
let timing_pass () =
  List.concat_map
    (fun test ->
      let instance = Instance.monotonic_clock in
      let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) () in
      let raw = Benchmark.all cfg [ instance ] test in
      let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
      let results = Analyze.all ols instance raw in
      let pass = ref [] in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> pass := (name, Some est) :: !pass
          | Some _ | None -> pass := (name, None) :: !pass)
        results;
      (* one row per Test.make, so the hashtable holds a single binding *)
      List.rev !pass)
    all_tests

(* A wall-clock estimate is only as good as the quietest window it saw:
   co-tenant interference inflates a pass one-sidedly, so the per-row
   minimum over a few full passes converges on the undisturbed cost —
   which is the quantity the @bench-diff timing gate means to pin. *)
let timing_passes = 3

let timing_rows () =
  let merged = ref (timing_pass ()) in
  for _ = 2 to timing_passes do
    merged :=
      List.map2
        (fun (name, best) (name', est) ->
          assert (String.equal name name');
          ( name,
            match (best, est) with
            | Some a, Some b -> Some (Float.min a b)
            | (Some _ as v), None | None, v -> v ))
        !merged (timing_pass ())
  done;
  List.iter
    (fun (name, est) ->
      match est with
      | Some est -> Printf.printf "  %-32s %12.1f ns/run\n%!" name est
      | None -> Printf.printf "  %-32s (no estimate)\n%!" name)
    !merged;
  !merged

let run () =
  print_newline ();
  Printf.printf "== Micro-benchmarks (bechamel, monotonic clock, min of %d passes) ==\n%!"
    timing_passes;
  let timing = timing_rows () in
  print_endline "== Allocation rows (exact, minor words per call) ==";
  let alloc = alloc_rows () in
  print_endline "== Replica macro rows (deterministic, virtual units) ==";
  let macro = replica_rows () in
  print_endline "== Message-cost rows (deterministic, msgs/op) ==";
  let sendcost = sendcost_rows () in
  print_endline "== Domain-scaling rows (wall clock, msgs/s) ==";
  let scaling = Scaling.rows () in
  write_json (timing @ alloc @ macro @ sendcost @ scaling);
  Printf.printf "  wrote %s\n%!" json_path

(* The deterministic rows alone, written to their own file: being exact,
   they can be diffed against the committed baseline at 0% inside
   `dune runtest` (see bench/dune), where the timing rows cannot. *)
let run_replica_gate () =
  print_newline ();
  print_endline "== Allocation rows (exact, minor words per call) ==";
  let alloc = alloc_rows () in
  print_endline "== Replica macro rows (deterministic, virtual units) ==";
  let macro = replica_rows () in
  print_endline "== Message-cost rows (deterministic, msgs/op) ==";
  let sendcost = sendcost_rows () in
  let path = "BENCH_replica.json" in
  write_json ~path (alloc @ macro @ sendcost);
  Printf.printf "  wrote %s\n%!" path
