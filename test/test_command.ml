(* Typed commands are pinned to the Value path they replace: the same
   bytes, sizes and errors on the way out, and on the way in the same
   deliveries, rejections, failure messages, counters and trace text, for
   Replica's commands over well- and ill-formed bodies alike. *)

open Dcp_wire
module Runtime = Dcp_core.Runtime
module Message = Dcp_core.Message
module Port = Dcp_core.Port
module Replica = Dcp_primitives.Replica
module Reconcile = Dcp_primitives.Reconcile
module Metrics = Dcp_sim.Metrics
module Trace = Dcp_sim.Trace
module Clock = Dcp_sim.Clock
module Network = Dcp_net.Network
module Topology = Dcp_net.Topology
module Link = Dcp_net.Link
module Gen = QCheck2.Gen

let replica_commands =
  Command.
    [
      Cmd Replica.write_request;
      Cmd Replica.read_request;
      Cmd Replica.join_request;
      Cmd Replica.gossip;
      Cmd Replica.sync_digest;
      Cmd Replica.sync_pull;
      Cmd Replica.sync_delta;
      Cmd Replica.sync_ack;
      Cmd Command.failure;
    ]

(* The bounds every body here is read under: 24-bit integers and
   128-byte strings, so that the generators below cross both.  (A failure
   message carries its rejection reason, which must itself fit.) *)
let small = { Codec.default_config with int_bits = 24; max_string = 128 }

(* 63-bit ints and short strings: a written run is copied when none of
   its items is longer than a string may be, and walked otherwise. *)
let short = { Codec.default_config with max_string = 16 }

(* ---- generators ---- *)

let gen_str =
  Gen.(
    string_size ~gen:(char_range 'a' 'e')
      (frequency [ (9, int_range 0 12); (1, int_range 120 140) ]))
let gen_int = Gen.(oneof [ int_range (-3) 40; int_range (-(1 lsl 24)) (1 lsl 24) ])

let gen_port =
  Gen.(
    map
      (fun (node, uid) -> Port_name.make ~node ~guardian:(uid * 3) ~index:0 ~uid)
      (pair (int_range 0 3) (int_range 0 9)))

(* Any value, nested, of every constructor the codec writes. *)
let gen_value =
  Gen.(
    sized_size (int_range 0 3)
    @@ fix (fun self n ->
           let leaf =
             oneof
               [
                 pure Value.Unit;
                 map Value.bool bool;
                 map Value.int gen_int;
                 map Value.real (float_range (-1.) 1.);
                 map Value.str gen_str;
                 map Value.port gen_port;
                 map
                   (fun (o, b) -> Value.Tokenv (Token.of_wire (o, Int64.of_int b, 7L)))
                   (pair (int_range 0 9) (int_range 0 99));
                 pure (Value.Option None);
               ]
           in
           if n = 0 then leaf
           else
             let sub = self (n - 1) in
             oneof
               [
                 leaf;
                 map Value.list (list_size (int_range 0 3) sub);
                 map Value.tuple (list_size (int_range 0 3) sub);
                 map (fun v -> Value.Option (Some v)) sub;
                 map (fun v -> Value.Named ("blob", v)) sub;
                 map (fun (k, v) -> Value.record [ (k, v) ]) (pair gen_str sub);
               ]))

(* A value of a type, or now and then of another. *)
let rec gen_of ~typed t =
  let of_type =
    match t with
    | Vtype.Tint -> Gen.map Value.int gen_int
    | Vtype.Tstr -> Gen.map Value.str gen_str
    | Vtype.Tport -> Gen.map Value.port gen_port
    | Vtype.Tany -> gen_value
    | Vtype.Toption e -> Gen.(option (gen_of ~typed e) >|= Value.option)
    | Vtype.Tlist e -> Gen.(list_size (int_range 0 4) (gen_of ~typed e) >|= Value.list)
    | Vtype.Ttuple ts -> Gen.(flatten_l (List.map (gen_of ~typed) ts) >|= Value.tuple)
    | _ -> gen_value
  in
  if typed then of_type else Gen.(frequency [ (6, of_type); (1, gen_value) ])

let gen_args ~typed (s : Vtype.signature) = Gen.flatten_l (List.map (gen_of ~typed) s.args)

let signature_of name =
  List.find (fun (s : Vtype.signature) -> String.equal s.command name) Replica.port_type

let failure_signature = Vtype.signature "failure" [ Vtype.Tstr ]

let gen_command_args ~typed =
  Gen.(
    oneofl ("failure" :: List.map (fun (s : Vtype.signature) -> s.command) Replica.port_type)
    >>= fun name ->
    let s = if String.equal name "failure" then failure_signature else signature_of name in
    map (fun args -> (name, args)) (gen_args ~typed s))

(* ---- writers: the typed bytes, size and errors are the Value path's ---- *)

let target = Port_name.make ~node:1 ~guardian:2 ~index:0 ~uid:3
let encoder config = Codec.encoder ~config ()

(* The Value form of typed arguments. *)
let values_of c x = Command.payload_values (Command.Payload (c, x))

(* The typed arguments of [values]: the Value path's bytes under bounds
   every generated value fits, read by the declaration; [None] when the
   declaration refuses them. *)
let typed_of c values =
  let decl = Replica.commands in
  match
    Message.values_to_wire (encoder Codec.default_config) ~target ~sent_at:0 (Command.name c)
      values
  with
  | Error _ -> None
  | Ok body -> (
      match Message.of_wire ~config:Codec.default_config ~commands:(fun _ -> Some decl) body with
      | Ok (_, msg) -> Option.bind msg.Message.typed (Command.cast c)
      | Error _ -> None)

let check_writer config (Command.Cmd c) values reply_to =
  let decl = Replica.commands in
  match typed_of c values with
  | None -> false (* every generated argument list is well-typed *)
  | Some x ->
      let name = Command.name c in
      let sent_at = 250 in
      let value_bytes =
        Message.to_wire (encoder config) ~target (Message.make ?reply_to ~sent_at name values)
      in
      let typed_bytes = Message.command_to_wire (encoder config) ~target ?reply_to ~sent_at c x in
      let value_size = Codec.encoded_size ~config (Value.tuple (Value.str name :: values)) in
      let read_back =
        match typed_bytes with
        | Error _ -> true
        | Ok body -> (
            match Message.of_wire ~config ~commands:(fun _ -> Some decl) body with
            | Ok (_, msg) -> (
                match Option.bind msg.Message.typed (Command.cast c) with
                | Some x' -> List.equal Value.equal (values_of c x') values
                | None -> false)
            | Error _ -> false)
      in
      typed_bytes = value_bytes
      && Command.encoded_size ~config c x = value_size
      && List.equal Value.equal (values_of c x) values
      && read_back

let prop_writers =
  QCheck2.Test.make ~name:"typed bytes, size and read-back equal the Value path's" ~count:500
    Gen.(
      triple (gen_command_args ~typed:true) (oneofl [ Codec.default_config; small ])
        (option gen_port))
    (fun ((name, values), config, reply_to) ->
      let cmd =
        List.find (fun (Command.Cmd c) -> String.equal (Command.name c) name) replica_commands
      in
      check_writer config cmd values reply_to)

(* Sizes of single argument types, as the view and the chunking use them. *)
let prop_sizes =
  QCheck2.Test.make ~name:"typed size of a digest or delta entry equals Codec's" ~count:300
    Gen.(triple gen_str (pair (int_range 0 (1 lsl 40)) (int_range 0 99)) gen_value)
    (fun (key, stamp, value) ->
      let delta = Command.(triple str any Reconcile.stamp_ty) in
      Command.size_of Reconcile.entry_ty (key, stamp)
      = Codec.encoded_size (Reconcile.entry_value (key, stamp))
      && Command.size_of delta (key, value, stamp)
         = Codec.encoded_size
             (Value.tuple [ Value.str key; value; Reconcile.stamp_value stamp ])
      && List.equal Value.equal
           (values_of (Command.make "entry" (Command.args1 Reconcile.entry_ty)) (key, stamp))
           [ Reconcile.entry_value (key, stamp) ])

(* ---- runs: a list kept as its bytes reads and writes as the list ---- *)

type elt = Elt : 'a Command.ty -> elt

let elts =
  Command.
    [
      Elt Reconcile.entry_ty;
      Elt int;
      Elt str;
      Elt port;
      Elt any;
      Elt (option str);
      Elt (list int);
      Elt (pair int any);
      Elt (triple str (option int) (list str));
    ]

type read = Accepted of Value.t list * int | Refused | Errs of Codec.error

let same_read a b =
  match (a, b) with
  | Accepted (vs, pos), Accepted (vs', pos') -> List.equal Value.equal vs vs' && pos = pos'
  | Refused, Refused -> true
  | Errs e, Errs e' -> e = e'
  | _ -> false

(* One argument of [ty] read from [body] (a count, then the argument):
   the outcome, with the values and where the reader stopped, and the
   argument if accepted. *)
let read_one config ty body =
  let c = Command.make "x" (Command.args1 ty) in
  let r = Codec.reader config body in
  match Command.read_args config (Command.decl [ Command.Cmd c ]) "x" r with
  | Some payload ->
      (Accepted (Command.payload_values payload, Codec.position r), Command.cast c payload)
  | None -> (Refused, None)
  | exception Codec.Codec_error e -> (Errs e, None)

let write_one config ty x =
  let c = Command.make "x" (Command.args1 ty) in
  let enc = Codec.encoder ~config () in
  Codec.start enc;
  ( (match Command.write_args enc c x with
    | () -> Codec.finish enc
    | exception Codec.Codec_error e -> Error e),
    Command.encoded_size ~config c x )

(* A list of an element type's values, now and then with one of another
   type or not a list at all, then maybe truncated or with a byte
   flipped. *)
let gen_run_body elt_type =
  Gen.(
    gen_of ~typed:false (Vtype.Tlist elt_type) >>= fun v ->
    let body = "\001" ^ Codec.encode_exn v in
    frequency
      [
        (6, pure body);
        (1, map (fun n -> String.sub body 0 (n mod (String.length body + 1))) nat);
        ( 2,
          map2
            (fun i b ->
              let bytes = Bytes.of_string body in
              let i = i mod Bytes.length bytes in
              Bytes.set bytes i (Char.chr b);
              Bytes.to_string bytes)
            nat (int_range 0 255) );
      ])

let prop_runs =
  QCheck2.Test.make ~name:"a run reads, refuses, errs and writes as its list does" ~count:1000
    ~print:(fun (Elt ty, body, config) ->
      Printf.sprintf "%s, %S, int_bits %d, max_string %d" (Vtype.to_string (Command.vtype ty))
        body config.Codec.int_bits config.Codec.max_string)
    Gen.(
      oneofl elts >>= fun (Elt ty) ->
      map2 (fun body config -> (Elt ty, body, config))
        (gen_run_body (Command.vtype ty))
        (oneofl [ Codec.default_config; small; short ]))
    (fun (Elt ty, body, config) ->
      let as_list, items = read_one config (Command.list ty) body in
      let as_run, run = read_one config (Command.run ty) body in
      same_read as_list as_run
      &&
      match (items, run) with
      | Some xs, Some run ->
          let runs =
            [
              run;
              Command.run_of_items (List.map (Command.item (Command.writer ()) ty) xs);
            ]
          in
          List.for_all
            (fun run ->
              List.equal Value.equal
                (values_of (Command.make "x" (Command.args1 (Command.list ty)))
                   (Command.items ty run))
                (values_of (Command.make "x" (Command.args1 (Command.list ty))) xs)
              && List.for_all
                   (fun config ->
                     write_one config (Command.run ty) run = write_one config (Command.list ty) xs)
                   [ Codec.default_config; small; short ])
            runs
      | None, None -> true
      | _ -> false)

(* ---- delivery: a typed port accepts and refuses what the Value path does ---- *)

(* Bodies for the receiver's port: envelopes with well- or ill-typed
   arguments, unknown commands, reordered fields, truncations and flipped
   bytes. *)
let gen_body ~receiver ~sink =
  let gen_reply =
    Gen.oneofl
      [ None; Some sink; Some (Port_name.make ~node:0 ~guardian:0 ~index:9 ~uid:99) ]
  in
  let envelope =
    Gen.(
      map3
        (fun (name, args) reply_to sent_at ->
          Message.envelope ~target:receiver (Message.make ?reply_to ~sent_at name args))
        (frequency
           [
             (8, gen_command_args ~typed:false);
             (1, map (fun args -> ("bogus", args)) (list_size (int_range 0 2) gen_value));
           ])
        gen_reply (int_range 0 1000))
  in
  let encode v = Codec.encode_exn v in
  Gen.(
    envelope >>= fun env ->
    let body = encode env in
    frequency
      [
        (10, pure body);
        ( 1,
          match env with
          | Value.Record fields -> pure (encode (Value.record (List.rev fields)))
          | _ -> pure body );
        (1, map (fun n -> String.sub body 0 (n mod (String.length body + 1))) nat);
        ( 1,
          map2
            (fun i b ->
              let bytes = Bytes.of_string body in
              let i = i mod Bytes.length bytes in
              Bytes.set bytes i (Char.chr b);
              Bytes.to_string bytes)
            nat (int_range 0 255) );
      ])

(* One world: a receiver at node 1 whose port has Replica's type, typed or
   not; a sink at node 0 whose wildcard port takes failure messages.  The
   receiver's port holds 3 messages and is drained only after the batch has
   arrived, so a batch also overflows it.  Each delivery records whether it
   carries a typed payload. *)
let outcome ~typed bodies =
  let config = { Runtime.default_config with codec = small; trace = true } in
  let world =
    Runtime.create_world ~seed:5 ~topology:(Topology.full_mesh ~n:2 Link.perfect) ~config ()
  in
  let delivered = ref [] and failures = ref [] in
  Runtime.register_def world
    {
      Runtime.def_name = "receiver";
      provides = [ (Replica.port_type, 3) ];
      init =
        (fun ctx _ ->
          let port = Runtime.port ctx 0 in
          if typed then Runtime.accept ctx port Replica.commands;
          Runtime.sleep ctx (Clock.s 1);
          let rec drain () =
            match Runtime.receive ctx ~timeout:0 [ port ] with
            | `Timeout -> ()
            | `Msg (_, msg) ->
                let args =
                  match msg.Message.typed with
                  | None -> msg.Message.args
                  | Some payload -> Command.payload_values payload
                in
                delivered :=
                  ( msg.Message.command,
                    args,
                    msg.Message.reply_to,
                    msg.Message.sent_at,
                    Option.is_some msg.Message.typed )
                  :: !delivered;
                drain ()
          in
          drain ());
      recover = None;
    };
  Runtime.register_def world
    {
      Runtime.def_name = "sink";
      provides = [ ([ Vtype.wildcard ], 256) ];
      init =
        (fun ctx _ ->
          let rec loop () =
            match Runtime.receive ctx [ Runtime.port ctx 0 ] with
            | `Timeout -> ()
            | `Msg (p, msg) ->
                failures :=
                  Message.to_wire (Codec.encoder ()) ~target:(Port.name p) msg :: !failures;
                loop ()
          in
          loop ());
      recover = None;
    };
  let receiver = Runtime.create_guardian world ~at:1 ~def_name:"receiver" ~args:[] in
  let sink = Runtime.create_guardian world ~at:0 ~def_name:"sink" ~args:[] in
  let receiver_port = List.hd (Runtime.guardian_ports receiver) in
  let sink_port = List.hd (Runtime.guardian_ports sink) in
  let bodies = bodies ~receiver:receiver_port ~sink:sink_port in
  List.iter (fun body -> Network.send (Runtime.network world) ~src:0 ~dst:1 body) bodies;
  Runtime.run_for world (Clock.s 2);
  let counters =
    List.map
      (fun name -> (name, Metrics.count (Metrics.counter (Runtime.metrics world) name)))
      [
        "deliver.ok";
        "deliver.discarded";
        "deliver.malformed";
        "failure.sent";
        "send.total";
      ]
  in
  let trace =
    List.map (fun e -> e.Trace.category ^ " " ^ e.Trace.detail) (Trace.events (Runtime.trace world))
  in
  (List.rev !delivered, List.rev !failures, counters, trace)

let prop_delivery =
  QCheck2.Test.make ~name:"a typed port delivers and refuses as the Value path does" ~count:150
    Gen.(list_size (int_range 1 6) (pair nat nat))
    (fun seeds ->
      (* the bodies depend on the port names, known once the world exists;
         draw them from a fixed stream per case *)
      let bodies ~receiver ~sink =
        List.map
          (fun (a, b) ->
            Gen.generate1 ~rand:(Random.State.make [| a; b |]) (gen_body ~receiver ~sink))
          seeds
      in
      let value_side = outcome ~typed:false bodies in
      let typed_side = outcome ~typed:true bodies in
      let delivered (d, _, _, _) = d and failures (_, f, _, _) = f in
      let counters (_, _, c, _) = c and trace (_, _, _, t) = t in
      List.equal
        (fun (c1, a1, r1, s1, t1) (c2, a2, r2, s2, t2) ->
          String.equal c1 c2 && List.equal Value.equal a1 a2 && r1 = r2 && s1 = s2
          && (not t1) && t2)
        (delivered value_side) (delivered typed_side)
      && failures value_side = failures typed_side
      && counters value_side = counters typed_side
      && trace value_side = trace typed_side)

(* The shapes test_replica injects, typed and not, reach the handler in
   the same form: the Value arguments of a typed delivery are the ones
   sent. *)
let test_injected_shapes () =
  let stamp c o = Value.tuple [ Value.int c; Value.int o ] in
  let hash = Reconcile.hash_value 0L in
  let shapes =
    [
      ("gossip", [ Value.str "k"; Value.int 1; stamp (-3) (-9) ]);
      ( "sync_digest",
        [ Value.str "z"; Value.option (Some (Value.str "a")); Value.list []; hash; Value.option None ]
      );
      ( "sync_digest",
        [
          Value.str "";
          Value.option None;
          Value.list [ Value.tuple [ Value.str "k"; stamp 0 0 ] ];
          hash;
          Value.option None;
        ] );
      ("sync_delta", [ Value.list [ Value.tuple [ Value.str "k"; Value.int 9; stamp 0 5 ] ]; hash ]);
      ("sync_ack", [ Value.str "short" ]);
      ("sync_pull", [ Value.list [ Value.str "a"; Value.str "a" ]; hash ]);
    ]
  in
  let bodies ~receiver ~sink =
    List.map
      (fun (name, args) ->
        Codec.encode_exn
          (Message.envelope ~target:receiver (Message.make ~reply_to:sink ~sent_at:0 name args)))
      shapes
  in
  let typed_side = outcome ~typed:true bodies in
  let value_side = outcome ~typed:false bodies in
  let delivered (d, _, _, _) = List.map (fun (c, a, _, _, _) -> (c, a)) d in
  let carry_typed (d, _, _, _) = List.map (fun (_, _, _, _, t) -> t) d in
  Alcotest.(check int) "three fit the port" 3 (List.length (delivered typed_side));
  Alcotest.(check (list bool)) "each carries its typed form" [ true; true; true ]
    (carry_typed typed_side);
  Alcotest.(check bool)
    "the arguments as sent" true
    (List.for_all2
       (fun (c, a) (c', a') -> String.equal c c' && List.equal Value.equal a a')
       (delivered typed_side)
       (List.filteri (fun i _ -> i < 3) shapes));
  let without_form (d, f, c, t) =
    (List.map (fun (cmd, a, r, s, _) -> (cmd, a, r, s)) d, f, c, t)
  in
  Alcotest.(check bool) "the same outcome as the Value path" true
    (without_form typed_side = without_form value_side)

(* A digest whose entries the run refuses falls back to the Value path on
   a typed port, and is rejected there with a failure reply, as on an
   untyped one. *)
let test_refused_digest_falls_back () =
  let hash = Reconcile.hash_value 0L in
  let digest entries =
    [ Value.str ""; Value.option None; Value.list entries; hash; Value.option None ]
  in
  let stamp = Value.tuple [ Value.int 1; Value.int 0 ] in
  (* the last entry has an origin of a string's tag and an int's size *)
  let shapes =
    [
      digest [ Value.int 3 ];
      digest [ Value.tuple [ Value.str "k"; stamp ]; Value.tuple [ Value.int 1; stamp ] ];
      digest [ Value.tuple [ Value.str "k"; Value.tuple [ Value.int 1 ] ] ];
      digest [ Value.tuple [ Value.str "k"; Value.tuple [ Value.int 1; Value.str "" ] ] ];
    ]
  in
  let bodies ~receiver ~sink =
    List.map
      (fun args ->
        Codec.encode_exn
          (Message.envelope ~target:receiver
             (Message.make ~reply_to:sink ~sent_at:0 "sync_digest" args)))
      shapes
  in
  let typed_side = outcome ~typed:true bodies in
  let value_side = outcome ~typed:false bodies in
  let delivered (d, _, _, _) = d and failures (_, f, _, _) = f in
  Alcotest.(check int) "none delivered" 0 (List.length (delivered typed_side));
  Alcotest.(check int) "a failure reply each" 4 (List.length (failures typed_side));
  Alcotest.(check bool) "the same outcome as the Value path" true (typed_side = value_side)

(* ---- the digest view ---- *)

let prop_view =
  QCheck2.Test.make ~name:"the incremental view equals a sorted rebuild" ~count:300
    Gen.(
      list_size (int_range 0 40)
        (triple (oneofl [ "a"; "b"; "c"; "dd"; "e"; String.make 20 'f' ]) (int_range 1 30)
           (int_range 0 3)))
    (fun writes ->
      let model = Hashtbl.create 8 in
      let table, agreed =
        List.fold_left
          (fun (table, agreed) (key, c, o) ->
            let stamp = (c, o) in
            let held = Hashtbl.find_opt model key in
            let wins =
              match held with Some s -> Reconcile.stamp_compare s stamp < 0 | None -> true
            in
            if wins then Hashtbl.replace model key stamp;
            match Reconcile.update table ~key ~value:c ~stamp with
            | None -> (table, agreed && not wins)
            | Some (table, replaced) -> (table, agreed && wins && replaced = held))
          (Reconcile.empty, true) writes
      in
      let rebuilt =
        Hashtbl.fold (fun key stamp acc -> (key, stamp) :: acc) model []
        |> List.sort Reconcile.entry_compare
        |> List.map (fun (key, stamp) ->
               let size =
                 match Codec.encoded_size (Reconcile.entry_value (key, stamp)) with
                 | Ok n -> n
                 | Error _ -> max_int
               in
               (key, stamp, size))
      in
      agreed && Reconcile.view table = rebuilt)

let tests =
  [
    QCheck_alcotest.to_alcotest prop_writers;
    QCheck_alcotest.to_alcotest prop_sizes;
    QCheck_alcotest.to_alcotest prop_delivery;
    Alcotest.test_case "test_replica's injected shapes" `Quick test_injected_shapes;
    QCheck_alcotest.to_alcotest prop_view;
    QCheck_alcotest.to_alcotest prop_runs;
    Alcotest.test_case "a refused digest falls back to the Value path" `Quick
      test_refused_digest_falls_back;
  ]
