(* Distributed simultaneous update (§3's protocol family): replicated
   registers with Lamport-stamped last-writer-wins and anti-entropy. *)

open Dcp_wire
module Runtime = Dcp_core.Runtime
module Port = Dcp_core.Port
module Replica = Dcp_primitives.Replica
module Reconcile = Dcp_primitives.Reconcile
module Rpc = Dcp_primitives.Rpc
module Clock = Dcp_sim.Clock
module Metrics = Dcp_sim.Metrics
module Topology = Dcp_net.Topology
module Network = Dcp_net.Network
module Link = Dcp_net.Link
module Store = Dcp_stable.Store

let make_world ?(n = 3) ?(link = Link.lan) () =
  Runtime.create_world ~seed:73 ~topology:(Topology.full_mesh ~n link) ()

let fresh_name =
  let i = ref 0 in
  fun () ->
    incr i;
    Printf.sprintf "replica_driver_%d" !i

let driver world ~at body =
  let name = fresh_name () in
  let def =
    { Runtime.def_name = name; provides = []; init = (fun ctx _ -> body ctx); recover = None }
  in
  Runtime.register_def world def;
  ignore (Runtime.create_guardian world ~at ~def_name:name ~args:[])

(* Read replica i from a driver co-located at node i, so the observation
   itself neither crosses partitions nor suffers link loss. *)
let read_all world replicas ~key =
  let results = Array.make (List.length replicas) None in
  List.iteri
    (fun i replica ->
      driver world ~at:i (fun ctx ->
          results.(i) <-
            Option.map Value.to_string (Replica.read ctx ~replica ~key ~timeout:(Clock.s 1))))
    replicas;
  Runtime.run_for world (Clock.s 5);
  Array.to_list results

let test_write_propagates () =
  let world = make_world () in
  let replicas = Replica.create_group world ~nodes:[ 0; 1; 2 ] () in
  driver world ~at:0 (fun ctx ->
      Runtime.sleep ctx (Clock.ms 50);
      ignore
        (Replica.write ctx ~replica:(List.hd replicas) ~key:"color"
           ~value:(Value.str "red") ~timeout:(Clock.s 1)));
  Runtime.run_for world (Clock.s 5);
  Alcotest.(check (list (option string)))
    "all replicas converge"
    [ Some "\"red\""; Some "\"red\""; Some "\"red\"" ]
    (read_all world replicas ~key:"color")

let test_unknown_key () =
  let world = make_world () in
  let replicas = Replica.create_group world ~nodes:[ 0; 1; 2 ] () in
  Alcotest.(check (list (option string)))
    "nothing written"
    [ None; None; None ]
    (read_all world replicas ~key:"ghost")

let test_concurrent_writes_converge_to_one_winner () =
  let world = make_world () in
  let replicas = Replica.create_group world ~nodes:[ 0; 1; 2 ] () in
  (* Three clients write different values to three replicas at (nearly)
     the same moment. *)
  List.iteri
    (fun i replica ->
      driver world ~at:i (fun ctx ->
          Runtime.sleep ctx (Clock.ms 50);
          ignore
            (Replica.write ctx ~replica ~key:"leader"
               ~value:(Value.str (Printf.sprintf "candidate%d" i))
               ~timeout:(Clock.s 1))))
    replicas;
  Runtime.run_for world (Clock.s 10);
  match read_all world replicas ~key:"leader" with
  | [ Some a; Some b; Some c ] ->
      Alcotest.(check string) "replica 1 agrees" a b;
      Alcotest.(check string) "replica 2 agrees" b c
  | other ->
      Alcotest.failf "missing values: %s"
        (String.concat "," (List.map (Option.value ~default:"-") other))

let test_partition_then_converge () =
  let world = make_world () in
  let replicas = Replica.create_group world ~nodes:[ 0; 1; 2 ] ~sync_every:(Clock.ms 200) () in
  let network = Runtime.network world in
  (* Let the group form, then split node 2 away. *)
  Runtime.run_for world (Clock.ms 100);
  Network.partition network [ [ 0; 1 ]; [ 2 ] ];
  (* Both sides accept conflicting writes during the partition. *)
  driver world ~at:0 (fun ctx ->
      ignore
        (Replica.write ctx ~replica:(List.nth replicas 0) ~key:"k" ~value:(Value.str "west")
           ~timeout:(Clock.s 1)));
  driver world ~at:2 (fun ctx ->
      Runtime.sleep ctx (Clock.ms 10);
      ignore
        (Replica.write ctx ~replica:(List.nth replicas 2) ~key:"k" ~value:(Value.str "east")
           ~timeout:(Clock.s 1)));
  Runtime.run_for world (Clock.s 2);
  (* Divergence while partitioned. *)
  (match read_all world replicas ~key:"k" with
  | [ Some a; _; Some c ] -> Alcotest.(check bool) "diverged" true (a <> c)
  | _ -> Alcotest.fail "missing values during partition");
  (* Heal; anti-entropy reconciles to a single winner everywhere. *)
  Network.heal network;
  Runtime.run_for world (Clock.s 5);
  match read_all world replicas ~key:"k" with
  | [ Some a; Some b; Some c ] ->
      Alcotest.(check string) "converged 0=1" a b;
      Alcotest.(check string) "converged 1=2" b c
  | _ -> Alcotest.fail "missing values after heal"

let test_lossy_network_still_converges () =
  let world = make_world ~link:(Link.lossy 0.3) () in
  let replicas = Replica.create_group world ~nodes:[ 0; 1; 2 ] ~sync_every:(Clock.ms 100) () in
  driver world ~at:1 (fun ctx ->
      Runtime.sleep ctx (Clock.ms 200);
      for i = 0 to 4 do
        ignore
          (Replica.write ctx
             ~replica:(List.nth replicas 1)
             ~key:(Printf.sprintf "k%d" i)
             ~value:(Value.int i) ~timeout:(Clock.s 1))
      done);
  Runtime.run_for world (Clock.s 30);
  (* every key readable from every replica despite 30% loss *)
  for i = 0 to 4 do
    match read_all world replicas ~key:(Printf.sprintf "k%d" i) with
    | [ Some a; Some b; Some c ] ->
        Alcotest.(check string) "agree" a b;
        Alcotest.(check string) "agree" b c
    | _ -> Alcotest.failf "key k%d missing somewhere" i
  done

(* ---- reconcile: the pure protocol half ---- *)

let test_reconcile_diff () =
  let claimed = [ ("a", (2, 0)); ("b", (1, 0)); ("d", (1, 1)) ] in
  let held = [ ("b", (2, 1)); ("c", (1, 0)) ] in
  let d = Reconcile.diff ~claimed ~held in
  Alcotest.(check (list string)) "pulls sender-newer and missing" [ "a"; "d" ] d.Reconcile.pulls;
  Alcotest.(check (list string)) "pushes receiver-newer and missing" [ "b"; "c" ] d.Reconcile.pushes;
  Alcotest.(check (option (pair int int))) "max claimed" (Some (2, 0)) d.Reconcile.max_claimed;
  let equal = Reconcile.diff ~claimed:held ~held in
  Alcotest.(check (list string)) "equal tables pull nothing" [] equal.Reconcile.pulls;
  Alcotest.(check (list string)) "equal tables push nothing" [] equal.Reconcile.pushes

let test_reconcile_budget () =
  let size _ = 10 in
  (* 96 bytes of the budget are reserved for the message around the entries *)
  let budget = 96 + 25 in
  Alcotest.(check (list (list int)))
    "greedy runs cover everything"
    [ [ 1; 2 ]; [ 3; 4 ]; [ 5 ] ]
    (Reconcile.chunks ~budget ~size [ 1; 2; 3; 4; 5 ]);
  (* an entry bigger than the whole budget still makes progress *)
  let huge _ = 10_000 in
  Alcotest.(check (list (list int)))
    "oversized entries taken alone" [ [ 1 ]; [ 2 ] ]
    (Reconcile.chunks ~budget ~size:huge [ 1; 2 ])

let test_reconcile_stamps_and_windows () =
  Alcotest.(check (option (pair int int)))
    "store mirror round-trip" (Some (42, 7))
    (Reconcile.stamp_of_string (Reconcile.stamp_to_string (42, 7)));
  Alcotest.(check (option (pair int int))) "garbage text" None (Reconcile.stamp_of_string "boom");
  Alcotest.(check bool) "inverted window rejected" false
    (Reconcile.window_ok { Reconcile.lo = "z"; hi = Some "a" });
  let w = { Reconcile.lo = "b"; hi = Some "d" } in
  Alcotest.(check bool) "window ok" true (Reconcile.window_ok w);
  let table =
    List.fold_left
      (fun table key ->
        match Reconcile.update table ~key ~value:() ~stamp:(1, 0) with
        | Some (table, _) -> table
        | None -> table)
      Reconcile.empty [ "a"; "b"; "c"; "d"; "e" ]
  in
  Alcotest.(check (list string)) "a window holds [lo, hi)" [ "b"; "c" ]
    (List.map fst (Reconcile.held_in table w))

(* ---- protocol-level regressions ---- *)

let metric world name = Metrics.count (Metrics.counter (Runtime.metrics world) name)

let replica_store world i =
  List.nth (Runtime.find_guardians world ~def_name:Replica.def_name) i
  |> Runtime.guardian_store

(* A digest entry as the Value path carries it. *)
let entry_of_value = function
  | Value.Tuple [ Value.Str key; Value.Tuple [ Value.Int counter; Value.Int origin ] ] ->
      Some (key, (counter, origin))
  | _ -> None

(* The hash an honest sender holding exactly these digest entries sends. *)
let hash_of_entries entries =
  Reconcile.hash_value (Reconcile.table_hash (List.filter_map entry_of_value entries))

(* A digest of [entries] from a sender that knows nothing of the receiver. *)
let digest_args ~lo ~hi entries =
  [
    Value.str lo;
    Value.option (Option.map Value.str hi);
    Value.list entries;
    hash_of_entries entries;
    Value.option None;
  ]

(* The pull half of the exchange (the divergence bug): a digest claiming a
   key the receiver lacks must come back as sync_pull, alongside sync_delta
   for what the receiver holds that the digest lacks — one digest round
   reconciles both directions.  Driven wire-level so the assertion is about
   the messages, not just the eventual state. *)
let test_sync_digest_answers_with_pull () =
  let world = make_world () in
  let replicas = Replica.create_group world ~nodes:[ 0 ] ~sync_every:(Clock.s 1000) () in
  let replica = List.hd replicas in
  let got = ref [] in
  let observed_stamp = ref (0, 0) in
  driver world ~at:0 (fun ctx ->
      Runtime.sleep ctx (Clock.ms 50);
      (* seed the replica with "b" *)
      ignore (Replica.write ctx ~replica ~key:"b" ~value:(Value.str "bv") ~timeout:(Clock.s 1));
      let port = Runtime.new_port ctx Replica.port_type in
      let me = Port.name port in
      (* claim "a" at stamp (5,7), which this replica lacks *)
      Runtime.send ctx ~to_:replica ~reply_to:me "sync_digest"
        (digest_args ~lo:"" ~hi:None
           [ Value.tuple [ Value.str "a"; Value.tuple [ Value.int 5; Value.int 7 ] ] ]);
      let rec collect n =
        if n > 0 then
          match Runtime.receive ctx ~timeout:(Clock.s 2) [ port ] with
          | `Timeout -> ()
          | `Msg (_, msg) ->
              got := (msg.Dcp_core.Message.command, msg.Dcp_core.Message.args) :: !got;
              collect (n - 1)
      in
      collect 2;
      (* answer the pull like a real sender would *)
      Runtime.send ctx ~to_:replica ~reply_to:me "sync_delta"
        [
          Value.list
            [ Value.tuple [ Value.str "a"; Value.str "av"; Value.tuple [ Value.int 5; Value.int 7 ] ] ];
          Reconcile.hash_value (Reconcile.table_hash [ ("a", (5, 7)) ]);
        ];
      Runtime.sleep ctx (Clock.ms 50);
      (* satellite 3: the digest's claimed max stamp was observed, so the
         next local write must outrank counter 5 *)
      (match Rpc.call ctx ~to_:replica ~timeout:(Clock.s 1) "write" [ Value.str "c"; Value.int 1 ] with
      | Rpc.Reply ("written", [ Value.Tuple [ Value.Int c; Value.Int o ] ]) -> observed_stamp := (c, o)
      | _ -> ()));
  Runtime.run_for world (Clock.s 10);
  let commands = List.sort compare (List.map fst !got) in
  Alcotest.(check (list string)) "delta and pull sent back" [ "sync_delta"; "sync_pull" ] commands;
  List.iter
    (fun (command, args) ->
      match (command, args) with
      | "sync_pull", [ Value.Listv [ Value.Str k ]; _ ] ->
          Alcotest.(check string) "pulls the missing key" "a" k
      | "sync_delta", [ Value.Listv [ Value.Tuple [ Value.Str k; _; _ ] ]; _ ] ->
          Alcotest.(check string) "pushes the held key" "b" k
      | _ -> Alcotest.failf "unexpected reply %s" command)
    !got;
  Alcotest.(check bool)
    (Printf.sprintf "write stamped past the claimed counter (got %d)" (fst !observed_stamp))
    true
    (fst !observed_stamp > 5);
  (* the pulled delta landed *)
  let table = Replica.table_in_store (replica_store world 0) in
  Alcotest.(check bool) "pulled entry applied" true (List.mem_assoc "a" table)

(* Digests an honest sender never produces: entries out of key order, or
   one key under two stamps.  The receiver sorts and deduplicates them
   exactly as it always has, so it sends the same deltas and pulls; the
   expected replies were recorded before honest digests stopped being
   re-sorted on receipt.  A reply is shown without the sender hash that
   every sync message now carries last. *)
let unsorted_digest_replies =
  let pushes_d_f = "sync_delta([(\"d\", \"dv\", (2, 0)); (\"f\", \"fv\", (3, 0))])" in
  [
    ("out of order", [ pushes_d_f; "sync_pull([\"a\"; \"b\"; \"e\"])" ]);
    ("duplicate key", [ pushes_d_f; "sync_pull([\"c\"])" ]);
    ("duplicate key, reversed", [ pushes_d_f; "sync_pull([\"b\"; \"c\"])" ]);
    ( "adjacent duplicate",
      [ "sync_delta([(\"d\", \"dv\", (2, 0))])"; "sync_pull([\"a\"; \"b\"])" ] );
    ("window, unsorted", [ "sync_pull([\"c\"; \"d\"; \"e\"])" ]);
    ("sorted", [ pushes_d_f; "sync_pull([\"c\"])" ]);
  ]

let test_unsorted_digest_replies () =
  let world = make_world () in
  let replica = List.hd (Replica.create_group world ~nodes:[ 0 ] ~sync_every:(Clock.s 1000) ()) in
  let replies = ref [] in
  driver world ~at:0 (fun ctx ->
      Runtime.sleep ctx (Clock.ms 50);
      List.iter
        (fun key ->
          ignore
            (Replica.write ctx ~replica ~key ~value:(Value.str (key ^ "v")) ~timeout:(Clock.s 1)))
        [ "b"; "d"; "f" ];
      let port = Runtime.new_port ctx Replica.port_type in
      let entry key c o = Value.tuple [ Value.str key; Value.tuple [ Value.int c; Value.int o ] ] in
      List.iter
        (fun (label, lo, hi, entries) ->
          Runtime.send ctx ~to_:replica ~reply_to:(Port.name port) "sync_digest"
            (digest_args ~lo ~hi entries);
          let rec collect acc =
            match Runtime.receive ctx ~timeout:(Clock.ms 200) [ port ] with
            | `Timeout -> List.rev acc
            | `Msg (_, msg) ->
                let args = List.rev (List.tl (List.rev msg.Dcp_core.Message.args)) in
                collect
                  (Printf.sprintf "%s(%s)" msg.Dcp_core.Message.command
                     (String.concat ", " (List.map Value.to_string args))
                  :: acc)
          in
          replies := (label, collect []) :: !replies)
        [
          ( "out of order", "", None,
            [ entry "e" 9 1; entry "a" 1 1; entry "d" 1 1; entry "b" 7 1 ] );
          ("duplicate key", "", None, [ entry "b" 9 1; entry "c" 1 1; entry "b" 1 0 ]);
          ("duplicate key, reversed", "", None, [ entry "b" 1 0; entry "c" 1 1; entry "b" 9 1 ]);
          ( "adjacent duplicate", "", None,
            [ entry "a" 2 1; entry "b" 1 0; entry "b" 4 2; entry "f" 3 0 ] );
          ("window, unsorted", "c", Some "f", [ entry "e" 1 1; entry "c" 2 2; entry "d" 50 0 ]);
          ("sorted", "a", None, [ entry "b" 1 0; entry "c" 1 1; entry "f" 2 0 ]);
        ]);
  Runtime.run_for world (Clock.s 10);
  Alcotest.(check (list (pair string (list string))))
    "the replies the receiver always sent" unsorted_digest_replies (List.rev !replies)

(* The digest a replica sends describes its table as it is now, however the
   table last changed.  A test port joined as the replica's only peer
   receives every digest; after each gossip or sync_delta (winning or not),
   the next digest must list exactly the mirrored table. *)
let test_digest_follows_every_apply () =
  let world = make_world () in
  let replica = List.hd (Replica.create_group world ~nodes:[ 0 ] ~sync_every:(Clock.ms 100) ()) in
  let store = replica_store world 0 in
  let observed = ref [] in
  driver world ~at:0 (fun ctx ->
      let port = Runtime.new_port ctx Replica.port_type in
      ignore
        (Rpc.call ctx ~to_:replica ~timeout:(Clock.s 1) "join"
           [ Value.list [ Value.port (Port.name port) ] ]);
      let rec next_digest () =
        match Runtime.receive ctx ~timeout:(Clock.s 1) [ port ] with
        | `Timeout -> None
        | `Msg (_, msg) -> (
            match (msg.Dcp_core.Message.command, msg.Dcp_core.Message.args) with
            | "sync_digest", [ _; _; Value.Listv l; _; _ ] ->
                Some (List.filter_map entry_of_value l)
            | _ -> next_digest ())
      in
      let rec drain () =
        match Runtime.receive ctx ~timeout:0 [ port ] with `Timeout -> () | `Msg _ -> drain ()
      in
      let observe label =
        (* let the apply land, drop digests sent before it, take the next *)
        Runtime.sleep ctx (Clock.ms 20);
        drain ();
        observed := (label, next_digest (), Replica.table_in_store store) :: !observed
      in
      let stamp c o = Value.tuple [ Value.int c; Value.int o ] in
      let gossip key c =
        Runtime.send ctx ~to_:replica "gossip" [ Value.str key; Value.int c; stamp c 1 ]
      in
      let delta entries =
        let entry (key, c) = Value.tuple [ Value.str key; Value.int c; stamp c 2 ] in
        Runtime.send ctx ~to_:replica "sync_delta"
          [ Value.list (List.map entry entries); Reconcile.hash_value 0L ]
      in
      observe "empty table";
      gossip "m" 1;
      observe "gossip adds m";
      delta [ ("a", 2); ("z", 3) ];
      observe "delta adds a and z";
      gossip "m" 5;
      observe "gossip replaces m";
      gossip "a" 1;
      observe "stale gossip changes nothing";
      delta [ ("b", 4); ("m", 6); ("z", 1) ];
      observe "delta adds b, replaces m, loses on z");
  Runtime.run_for world (Clock.s 5);
  Alcotest.(check int) "a digest after every step" 6 (List.length !observed);
  Alcotest.(check (list (pair string (pair int int))))
    "final table"
    [ ("a", (2, 2)); ("b", (4, 2)); ("m", (6, 2)); ("z", (3, 2)) ]
    (Replica.table_in_store store);
  List.iter
    (fun (label, digest, table) ->
      Alcotest.(check (option (list (pair string (pair int int))))) label (Some table) digest)
    (List.rev !observed)

(* Each side misses exactly one gossip (severed link during the writes);
   anti-entropy must reconcile both directions. *)
let test_drop_one_gossip_each_way_converges () =
  let world = make_world () in
  let replicas = Replica.create_group world ~nodes:[ 0; 1 ] ~sync_every:(Clock.ms 200) () in
  let network = Runtime.network world in
  Runtime.run_for world (Clock.ms 100);
  Network.partition network [ [ 0 ]; [ 1 ]; [ 2 ] ];
  driver world ~at:0 (fun ctx ->
      ignore
        (Replica.write ctx ~replica:(List.nth replicas 0) ~key:"east" ~value:(Value.int 1)
           ~timeout:(Clock.s 1)));
  driver world ~at:1 (fun ctx ->
      ignore
        (Replica.write ctx ~replica:(List.nth replicas 1) ~key:"west" ~value:(Value.int 2)
           ~timeout:(Clock.s 1)));
  Runtime.run_for world (Clock.s 2);
  Network.heal network;
  Runtime.run_for world (Clock.s 5);
  let t0 = Replica.table_in_store (replica_store world 0) in
  let t1 = Replica.table_in_store (replica_store world 1) in
  Alcotest.(check int) "both keys everywhere" 2 (List.length t0);
  Alcotest.(check bool) "identical tables" true (t0 = t1)

(* A digest is answered by comparing its window's bytes with the
   receiver's own: an equal window is answered as a diff that finds
   nothing would be, and any other window is read and diffed.  One
   replica holds a, b and c; each digest below claims the window [""..)
   with the given entries, table hash and believed hash, and the replies
   that reach the sender's port are listed by command. *)
let digest_replies cases =
  let world = make_world () in
  let replica = List.hd (Replica.create_group world ~nodes:[ 0 ] ~sync_every:(Clock.s 1000) ()) in
  let replies = ref [] in
  driver world ~at:0 (fun ctx ->
      Runtime.sleep ctx (Clock.ms 50);
      List.iter
        (fun key ->
          ignore (Replica.write ctx ~replica ~key ~value:(Value.str key) ~timeout:(Clock.s 1)))
        [ "a"; "b"; "c" ];
      let own = Replica.table_in_store (replica_store world 0) in
      let own_hash = Reconcile.table_hash own in
      let port = Runtime.new_port ctx Replica.port_type in
      List.iter
        (fun (entries_of, hash_of, believed_of) ->
          let entries = entries_of own in
          let believed = Option.map Reconcile.hash_value (believed_of own_hash) in
          Runtime.send ctx ~to_:replica ~reply_to:(Port.name port) "sync_digest"
            [
              Value.str "";
              Value.option None;
              Value.list (List.map Reconcile.entry_value entries);
              Reconcile.hash_value (hash_of own_hash);
              Value.option believed;
            ];
          let rec collect acc =
            match Runtime.receive ctx ~timeout:(Clock.ms 200) [ port ] with
            | `Timeout -> List.rev acc
            | `Msg (_, msg) -> collect (msg.Dcp_core.Message.command :: acc)
          in
          replies := collect [] :: !replies)
        cases);
  Runtime.run_for world (Clock.s 5);
  (List.rev !replies, metric world Replica.metric_malformed)

let same entries = entries
let own hash = hash
let other hash = Int64.add hash 1L

(* The entries with b's stamp replaced. *)
let with_b stamp entries = List.map (fun (k, s) -> if k = "b" then (k, stamp) else (k, s)) entries

(* Against each equal window, one that is not: as many entries with b
   older, or one entry fewer, under the receiver's own hash.  The receiver
   pushes b to either. *)
let test_equal_window_answers () =
  let without_b entries = List.filter (fun (k, _) -> k <> "b") entries in
  let older_b entries = with_b (fst (List.assoc "b" entries) - 1, 0) entries in
  let replies, malformed =
    digest_replies
      [
        (same, own, fun _ -> None);
        (same, own, fun h -> Some h);
        (same, other, fun _ -> None);
        (same, other, fun h -> Some h);
        (older_b, own, fun _ -> None);
        (without_b, own, fun _ -> None);
      ]
  in
  Alcotest.(check (list (list string)))
    "an ack exactly when the hashes match and the sender's belief is stale"
    [ [ "sync_ack" ]; []; []; []; [ "sync_delta" ]; [ "sync_delta" ] ]
    replies;
  Alcotest.(check int) "nothing malformed" 0 malformed

(* One newer stamp, under the receiver's own hash and with as many
   entries as it holds: neither names an equal window. *)
let test_newer_stamp_takes_diff () =
  let replies, _ =
    digest_replies [ (with_b (9, 0), own, fun _ -> None); (with_b (9, 0), other, fun _ -> None) ]
  in
  Alcotest.(check (list (list string))) "b is pulled" [ [ "sync_pull" ]; [ "sync_pull" ] ] replies

let test_nonpositive_stamp_malformed () =
  let replies, malformed =
    digest_replies
      [
        (with_b (0, 5), own, fun h -> Some h);
        (with_b (0, 5), other, fun _ -> None);
        (with_b (4, -1), own, fun _ -> None);
      ]
  in
  Alcotest.(check (list (list string))) "no answer" [ []; []; [] ] replies;
  Alcotest.(check int) "each counted" 3 malformed

(* Satellite 2: semantically malformed replica-to-replica messages are
   dropped and counted, never fatal. *)
let test_malformed_gossip_is_dropped_not_fatal () =
  let world = make_world () in
  let replicas = Replica.create_group world ~nodes:[ 0 ] ~sync_every:(Clock.s 1000) () in
  let replica = List.hd replicas in
  let survived = ref false in
  driver world ~at:0 (fun ctx ->
      Runtime.sleep ctx (Clock.ms 50);
      let port = Runtime.new_port ctx Replica.port_type in
      let me = Port.name port in
      (* type-correct but semantically garbage stamp *)
      Runtime.send ctx ~to_:replica "gossip"
        [ Value.str "k"; Value.int 1; Value.tuple [ Value.int (-3); Value.int (-9) ] ];
      (* inverted digest window *)
      Runtime.send ctx ~to_:replica ~reply_to:me "sync_digest"
        (digest_args ~lo:"z" ~hi:(Some "a") []);
      (* digest entry with a zero counter *)
      Runtime.send ctx ~to_:replica ~reply_to:me "sync_digest"
        (digest_args ~lo:"" ~hi:None
           [ Value.tuple [ Value.str "k"; Value.tuple [ Value.int 0; Value.int 0 ] ] ]);
      (* delta smuggling a bad stamp *)
      Runtime.send ctx ~to_:replica "sync_delta"
        [
          Value.list
            [ Value.tuple [ Value.str "k"; Value.int 9; Value.tuple [ Value.int 0; Value.int 5 ] ] ];
          Reconcile.hash_value 0L;
        ];
      (* a hash that is not 8 bytes *)
      Runtime.send ctx ~to_:replica ~reply_to:me "sync_ack" [ Value.str "short" ];
      Runtime.sleep ctx (Clock.ms 100);
      survived :=
        Replica.write ctx ~replica ~key:"alive" ~value:(Value.int 1) ~timeout:(Clock.s 1));
  Runtime.run_for world (Clock.s 5);
  Alcotest.(check bool) "guardian still serves writes" true !survived;
  Alcotest.(check int) "every malformed message counted" 5 (metric world Replica.metric_malformed);
  Alcotest.(check bool)
    "no garbage entered the table" false
    (List.mem_assoc "k" (Replica.table_in_store (replica_store world 0)))

(* Satellite 3 at full scale: a crashed replica rejoins empty, refills its
   soft state by anti-entropy, and its first write after the refill must
   outrank the pre-crash stamps it never saw. *)
let test_crash_rejoin_refills_and_wins () =
  let world = make_world () in
  let replicas = Replica.create_group world ~nodes:[ 0; 1; 2 ] ~sync_every:(Clock.ms 100) () in
  driver world ~at:0 (fun ctx ->
      Runtime.sleep ctx (Clock.ms 50);
      for i = 1 to 5 do
        ignore
          (Replica.write ctx ~replica:(List.hd replicas) ~key:(Printf.sprintf "k%d" i)
             ~value:(Value.int i) ~timeout:(Clock.s 1))
      done);
  Runtime.run_for world (Clock.s 3);
  Runtime.crash_node world 2;
  Runtime.run_for world (Clock.ms 500);
  Runtime.restart_node world 2;
  Runtime.run_for world (Clock.s 3);
  (* refill: the rejoined replica's mirrored table matches a survivor's *)
  let t0 = Replica.table_in_store (replica_store world 0) in
  let t2 = Replica.table_in_store (replica_store world 2) in
  Alcotest.(check int) "all five keys refilled" 5 (List.length t2);
  Alcotest.(check bool) "refilled table identical" true (t0 = t2);
  (* rejoined membership survived the crash *)
  Alcotest.(check int) "peers persisted" 2 (List.length (Replica.peers_in_store (replica_store world 2)));
  (* the write after rejoin wins everywhere *)
  let winner_stamp = ref (0, 0) in
  driver world ~at:2 (fun ctx ->
      match
        Rpc.call ctx ~to_:(List.nth replicas 2) ~timeout:(Clock.s 1) "write"
          [ Value.str "k5"; Value.str "winner" ]
      with
      | Rpc.Reply ("written", [ Value.Tuple [ Value.Int c; Value.Int o ] ]) ->
          winner_stamp := (c, o)
      | _ -> ());
  Runtime.run_for world (Clock.s 3);
  Alcotest.(check bool)
    (Printf.sprintf "rejoined write outranks pre-crash stamps (counter %d)" (fst !winner_stamp))
    true
    (fst !winner_stamp > 5);
  Alcotest.(check (list (option string)))
    "new value wins everywhere"
    [ Some "\"winner\""; Some "\"winner\""; Some "\"winner\"" ]
    (read_all world replicas ~key:"k5")

(* Satellite 4: join is idempotent, dedups, and never admits the replica's
   own port. *)
let test_join_idempotent_self_excluding () =
  let world = make_world () in
  let replicas = Replica.create_group world ~nodes:[ 0; 1; 2 ] () in
  Runtime.run_for world (Clock.ms 200);
  let r0 = List.nth replicas 0
  and r1 = List.nth replicas 1
  and r2 = List.nth replicas 2 in
  let expected = List.sort Port_name.compare [ r1; r2 ] in
  driver world ~at:0 (fun ctx ->
      (* a retried join carrying duplicates and the replica's own port *)
      let dirty = Value.list (List.map Value.port [ r0; r1; r1; r0; r2 ]) in
      for _ = 1 to 3 do
        ignore (Rpc.call ctx ~to_:r0 ~timeout:(Clock.s 1) "join" [ dirty ])
      done);
  Runtime.run_for world (Clock.s 3);
  let peers = Replica.peers_in_store (replica_store world 0) in
  Alcotest.(check int) "two peers, no dups, no self" 2 (List.length peers);
  Alcotest.(check bool) "exactly the other replicas" true
    (List.equal Port_name.equal expected (List.sort Port_name.compare peers));
  Alcotest.(check bool) "own port excluded" false (List.exists (Port_name.equal r0) peers)

(* A table bigger than one sync message: the budget forces multi-window
   digests and chunked deltas, and the cursor carries reconciliation across
   rounds until the full table converges. *)
let test_byte_budget_continuation () =
  let budget = 256 in
  let world = make_world () in
  let replicas =
    Replica.create_group world ~nodes:[ 0; 1; 2 ] ~sync_every:(Clock.ms 50) ~byte_budget:budget ()
  in
  let network = Runtime.network world in
  Runtime.run_for world (Clock.ms 100);
  (* writes reach only replica 0: refilling 1 and 2 is pure anti-entropy *)
  Network.partition network [ [ 0 ]; [ 1 ]; [ 2 ] ];
  driver world ~at:0 (fun ctx ->
      for i = 0 to 29 do
        ignore
          (Replica.write ctx ~replica:(List.hd replicas) ~key:(Printf.sprintf "key%02d" i)
             ~value:(Value.str (Printf.sprintf "value-%02d" i)) ~timeout:(Clock.s 1))
      done);
  Runtime.run_for world (Clock.s 2);
  Network.heal network;
  Runtime.run_for world (Clock.s 20);
  let tables = List.init 3 (fun i -> Replica.table_in_store (replica_store world i)) in
  (match tables with
  | [ t0; t1; t2 ] ->
      Alcotest.(check int) "all 30 keys on replica 0" 30 (List.length t0);
      Alcotest.(check bool) "replica 1 converged" true (t0 = t1);
      Alcotest.(check bool) "replica 2 converged" true (t0 = t2)
  | _ -> Alcotest.fail "missing tables");
  (* the whole table cannot fit one message, yet no message broke the budget *)
  let max_bytes =
    int_of_float (Metrics.gauge_value (Metrics.gauge (Runtime.metrics world) Replica.metric_max_bytes))
  in
  Alcotest.(check bool)
    (Printf.sprintf "largest sync message %d within budget %d" max_bytes budget)
    true
    (max_bytes > 0 && max_bytes <= budget);
  Alcotest.(check int) "no over-budget messages" 0 (metric world Replica.metric_over_budget);
  let table_bytes =
    List.fold_left
      (fun acc (key, stamp) ->
        acc + Result.get_ok (Codec.encoded_size (Reconcile.entry_value (key, stamp))))
      0
      (Replica.table_in_store (replica_store world 0))
  in
  Alcotest.(check bool) "table really spans multiple windows" true (table_bytes > budget)

(* ---- the quiet rule ----

   A replica that knows every peer holds its table digests only one drawn
   peer every 8 ticks (a keepalive); each tick of a replica that does not
   digests the drawn peers it does not know to agree. *)

let keepalive_periods = 8

(* Sync messages other than keepalive digests, sent so far. *)
let non_keepalive_sync world =
  metric world Replica.metric_sync_msgs - metric world Replica.metric_keepalives

let tables world n = List.init n (fun i -> Replica.table_in_store (replica_store world i))

let agreed world n =
  match tables world n with [] -> true | t :: rest -> List.for_all (fun t' -> t' = t) rest

(* Eight replicas on a LAN (250 ms ticks) and a writer on node 8, which
   writes one key through each replica and has the group converge. *)
let group_of_eight () =
  let world = make_world ~n:9 () in
  let replicas =
    Replica.create_group world ~nodes:(List.init 8 Fun.id) ~sync_every:(Clock.ms 250) ()
  in
  driver world ~at:8 (fun ctx ->
      Runtime.sleep ctx (Clock.ms 50);
      List.iteri
        (fun i replica ->
          ignore
            (Replica.write ctx ~replica ~key:(Printf.sprintf "k%d" i) ~value:(Value.int i)
               ~timeout:(Clock.s 1)))
        replicas);
  Runtime.run_for world (Clock.s 10);
  Alcotest.(check bool) "the group converged" true (agreed world 8);
  (world, replicas)

(* Over the next 10 s (40 ticks), the group sends keepalives and nothing
   else: at most one per replica per 8 ticks. *)
let check_quiet world label =
  let sync = non_keepalive_sync world and keepalives = metric world Replica.metric_keepalives in
  Runtime.run_for world (Clock.s 10);
  Alcotest.(check int) (label ^ ": no sync message but keepalives") sync (non_keepalive_sync world);
  let sent = metric world Replica.metric_keepalives - keepalives in
  Alcotest.(check bool)
    (Printf.sprintf "%s: %d keepalives, at most one per replica per %d ticks" label sent
       keepalive_periods)
    true
    (sent > 0 && sent <= 8 * ((40 / keepalive_periods) + 1))

let test_converged_group_sends_only_keepalives () =
  let world, _ = group_of_eight () in
  check_quiet world "converged group"

let test_write_wakes_quiet_group () =
  let world, replicas = group_of_eight () in
  check_quiet world "before the write";
  let sync = non_keepalive_sync world in
  driver world ~at:8 (fun ctx ->
      ignore
        (Replica.write ctx ~replica:(List.nth replicas 3) ~key:"late" ~value:(Value.int 1)
           ~timeout:(Clock.s 1)));
  Runtime.run_for world (Clock.s 5);
  Alcotest.(check bool) "the write woke anti-entropy" true (non_keepalive_sync world > sync);
  Alcotest.(check bool) "converged again" true (agreed world 8);
  Alcotest.(check int) "with the new key" 9 (List.length (List.hd (tables world 8)));
  check_quiet world "after the write"

let test_restarted_replica_catches_up () =
  let world, replicas = group_of_eight () in
  Runtime.crash_node world 5;
  driver world ~at:8 (fun ctx ->
      ignore
        (Replica.write ctx ~replica:(List.hd replicas) ~key:"while-down" ~value:(Value.int 1)
           ~timeout:(Clock.s 1)));
  Runtime.run_for world (Clock.s 1);
  Runtime.restart_node world 5;
  Runtime.run_for world (Clock.s 5);
  Alcotest.(check bool) "the restarted replica refilled" true (agreed world 8);
  Alcotest.(check int) "every key, the one written while it was down too" 9
    (List.length (Replica.table_in_store (replica_store world 5)));
  check_quiet world "after the restart"

(* The crash race of DESIGN.md §11, built by hand: a belief learned before
   a peer's crash can be wrong both ways at once.  A holds {k1, k2} and
   believes B reported that hash; B holds {k1} and believes A reported
   B's.  Each thinks its only peer agrees, so neither digests the other;
   only a keepalive (within 8 ticks) finds the difference. *)
let test_crash_race_pair_converges_by_keepalive () =
  let sync_every = Clock.ms 100 in
  let world = make_world () in
  let replicas = Replica.create_group world ~nodes:[ 0; 1 ] ~sync_every () in
  let a = List.nth replicas 0 and b = List.nth replicas 1 in
  (* The empty group agrees, and after 2 s both replicas know it. *)
  Runtime.run_for world (Clock.s 2);
  let sync = non_keepalive_sync world in
  Runtime.run_for world (Clock.s 1);
  Alcotest.(check int) "the empty pair is quiet" sync (non_keepalive_sync world);
  (* Each replica is sent a delta that names the other as its sender. *)
  let inject ~at ~to_ ~sender entries =
    driver world ~at (fun ctx ->
        Runtime.send ctx ~to_ ~reply_to:sender "sync_delta"
          [
            Value.list
              (List.map
                 (fun (key, stamp) ->
                   Value.tuple [ Value.str key; Value.str key; Reconcile.stamp_value stamp ])
                 entries);
            Reconcile.hash_value (Reconcile.table_hash entries);
          ])
  in
  let k1 = ("k1", (1, 9)) and k2 = ("k2", (2, 9)) in
  inject ~at:0 ~to_:a ~sender:b [ k1; k2 ];
  inject ~at:1 ~to_:b ~sender:a [ k1 ];
  Runtime.run_for world (Clock.ms 50);
  Alcotest.(check (list int)) "the race is set up" [ 2; 1 ] (List.map List.length (tables world 2));
  Runtime.run_for world ((keepalive_periods + 2) * sync_every);
  Alcotest.(check bool) "converged within the keepalive bound" true (agreed world 2);
  Alcotest.(check int) "on both keys" 2 (List.length (List.hd (tables world 2)))

(* Hashes are 8-byte strings, so a world whose codec holds ints to 24 bits
   (§3.2's 1979 machine) still runs anti-entropy.  On a perfect link it
   converges within 8 ms. *)
let test_config_1979_group_converges () =
  let world =
    Runtime.create_world ~seed:73
      ~topology:(Topology.full_mesh ~n:6 Link.perfect)
      ~config:{ Runtime.default_config with codec = Codec.config_1979 }
      ()
  in
  let replicas =
    Replica.create_group world ~nodes:[ 0; 1; 2; 3; 4 ] ~sync_every:(Clock.us 100) ~fanout:1 ()
  in
  driver world ~at:5 (fun ctx ->
      List.iteri
        (fun i replica ->
          ignore
            (Replica.write ctx ~replica ~key:(Printf.sprintf "k%d" i) ~value:(Value.int i)
               ~timeout:(Clock.ms 1)))
        replicas);
  Runtime.run_for world (Clock.ms 8);
  Alcotest.(check bool) "anti-entropy ran" true (metric world Replica.metric_sync_msgs > 0);
  Alcotest.(check bool) "the group converged" true (agreed world 5);
  Alcotest.(check int) "on every key" 5 (List.length (List.hd (tables world 5)));
  Alcotest.(check bool) "and acknowledged it" true (metric world Replica.metric_sync_acks > 0)

(* After any sequence of gossips and deltas, won or lost, the hash a
   replica reports (in the delta answering an empty digest) is the hash of
   its table recomputed from scratch. *)
let prop_incremental_hash =
  QCheck2.Test.make ~name:"incremental hash equals the recomputed hash" ~count:100
    QCheck2.Gen.(
      list_size (int_range 1 30) (triple (int_range 0 4) (int_range 1 6) (int_range 0 3)))
    (fun applies ->
      let world = make_world ~n:1 () in
      let replica =
        List.hd (Replica.create_group world ~nodes:[ 0 ] ~sync_every:(Clock.s 1000) ())
      in
      let reported = ref None in
      driver world ~at:0 (fun ctx ->
          List.iteri
            (fun i (k, counter, origin) ->
              let key = Value.str (String.make 1 (Char.chr (Char.code 'a' + k))) in
              let stamp = Reconcile.stamp_value (counter, origin) in
              if i mod 2 = 0 then Runtime.send ctx ~to_:replica "gossip" [ key; Value.int i; stamp ]
              else
                Runtime.send ctx ~to_:replica "sync_delta"
                  [
                    Value.list [ Value.tuple [ key; Value.int i; stamp ] ]; Reconcile.hash_value 0L;
                  ])
            applies;
          Runtime.sleep ctx (Clock.ms 10);
          let port = Runtime.new_port ctx Replica.port_type in
          Runtime.send ctx ~to_:replica ~reply_to:(Port.name port) "sync_digest"
            (digest_args ~lo:"" ~hi:None []);
          match Runtime.receive ctx ~timeout:(Clock.s 1) [ port ] with
          | `Msg (_, { Dcp_core.Message.command = "sync_delta"; args = [ _; hash ]; _ }) ->
              reported :=
                (match hash with Value.Str s -> Reconcile.hash_of_string s | _ -> None)
          | `Msg _ | `Timeout -> ());
      Runtime.run_for world (Clock.s 2);
      let recomputed = Reconcile.table_hash (Replica.table_in_store (replica_store world 0)) in
      Option.equal Int64.equal !reported (Some recomputed))

let tests =
  [
    Alcotest.test_case "write propagates" `Quick test_write_propagates;
    Alcotest.test_case "unknown key" `Quick test_unknown_key;
    Alcotest.test_case "concurrent writes: one winner" `Quick
      test_concurrent_writes_converge_to_one_winner;
    Alcotest.test_case "partition then converge" `Quick test_partition_then_converge;
    Alcotest.test_case "lossy network converges" `Slow test_lossy_network_still_converges;
    Alcotest.test_case "reconcile diff pulls and pushes" `Quick test_reconcile_diff;
    Alcotest.test_case "reconcile byte budgeting" `Quick test_reconcile_budget;
    Alcotest.test_case "reconcile stamps and windows" `Quick test_reconcile_stamps_and_windows;
    Alcotest.test_case "sync_digest answers with pull" `Quick test_sync_digest_answers_with_pull;
    Alcotest.test_case "unsorted or duplicate digest entries" `Quick test_unsorted_digest_replies;
    Alcotest.test_case "digest follows every apply" `Quick test_digest_follows_every_apply;
    Alcotest.test_case "drop one gossip each way, still converges" `Quick
      test_drop_one_gossip_each_way_converges;
    Alcotest.test_case "malformed gossip dropped, not fatal" `Quick
      test_malformed_gossip_is_dropped_not_fatal;
    Alcotest.test_case "crash-rejoin refills soft state and wins" `Quick
      test_crash_rejoin_refills_and_wins;
    Alcotest.test_case "join is idempotent and self-excluding" `Quick
      test_join_idempotent_self_excluding;
    Alcotest.test_case "byte-budget continuation" `Quick test_byte_budget_continuation;
    Alcotest.test_case "a converged group sends only keepalives" `Quick
      test_converged_group_sends_only_keepalives;
    Alcotest.test_case "a write wakes a quiet group" `Quick test_write_wakes_quiet_group;
    Alcotest.test_case "a restarted replica catches up, then quiet" `Quick
      test_restarted_replica_catches_up;
    Alcotest.test_case "crash-race pair converges by keepalive" `Quick
      test_crash_race_pair_converges_by_keepalive;
    Alcotest.test_case "a group on the 1979 codec converges" `Quick
      test_config_1979_group_converges;
    QCheck_alcotest.to_alcotest prop_incremental_hash;
    Alcotest.test_case "an equal window is answered as an empty diff" `Quick
      test_equal_window_answers;
    Alcotest.test_case "one newer stamp takes the diff" `Quick test_newer_stamp_takes_diff;
    Alcotest.test_case "a non-positive digest stamp is malformed" `Quick
      test_nonpositive_stamp_malformed;
  ]
