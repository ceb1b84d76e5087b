open Dcp_wire
module Runtime = Dcp_core.Runtime
module Message = Dcp_core.Message
module Store = Dcp_stable.Store
module Metrics = Dcp_sim.Metrics
module Clock = Dcp_sim.Clock

let def_name = "scd_register"
let metric_malformed = "register.malformed"

let port_type =
  [
    Rpc.request_signature "write" [ Vtype.Tstr; Vtype.Tany ]
      ~replies:[ Vtype.reply "written" []; Vtype.reply "not_ready" [] ];
    Rpc.request_signature "read" [ Vtype.Tstr ]
      ~replies:
        [
          Vtype.reply "value" [ Vtype.Tany ];
          Vtype.reply "unknown_key" [];
          Vtype.reply "not_ready" [];
        ];
    Scd.members_signature;
  ]
  @ Scd.signatures

(* ---- the LWW table, durable ---- *)

module Table = struct
  type t = (string, Value.t * Scd.ts) Hashtbl.t

  let prefix = "k:"
  let mirror_key key = prefix ^ key

  let is_mirror_key key =
    String.length key >= 2 && String.equal (String.sub key 0 2) prefix

  (* "<clock> <origin> <payload bytes>"; the payload encoding may contain
     any byte, so only the first two spaces separate. *)
  let encode_entry value (clock, origin) =
    Printf.sprintf "%d %d %s" clock origin (Codec.encode_exn value)

  let decode_entry data =
    match String.index_opt data ' ' with
    | None -> None
    | Some i -> (
        let rest = String.sub data (i + 1) (String.length data - i - 1) in
        match String.index_opt rest ' ' with
        | None -> None
        | Some j -> (
            let clock = int_of_string_opt (String.sub data 0 i) in
            let origin = int_of_string_opt (String.sub rest 0 j) in
            let bytes = String.sub rest (j + 1) (String.length rest - j - 1) in
            match (clock, origin, Codec.decode bytes) with
            | Some clock, Some origin, Ok value when clock > 0 && origin >= 0 ->
                Some (value, (clock, origin))
            | _ -> None))

  let restore store =
    let table = Hashtbl.create 32 in
    List.iter
      (fun (key, data) ->
        if is_mirror_key key then
          match decode_entry data with
          | Some entry ->
              Hashtbl.replace table (String.sub key 2 (String.length key - 2)) entry
          | None -> Store.remove store ~key (* torn record: drop it *))
      (Store.to_alist store);
    table

  let apply ctx table ~key ~value ~ts =
    match Hashtbl.find_opt table key with
    | Some (_, existing) when Scd.ts_compare existing ts >= 0 -> ()
    | Some _ | None ->
        Hashtbl.replace table key (value, ts);
        Store.set (Runtime.store ctx) ~key:(mirror_key key) (encode_entry value ts)

  let get table key = Hashtbl.find_opt table key

  let sorted_entries table =
    Hashtbl.fold (fun key (value, ts) acc -> (key, value, ts) :: acc) table []
    |> List.sort (fun (k1, _, _) (k2, _, _) -> String.compare k1 k2)

  let in_store store =
    List.filter_map
      (fun (key, data) ->
        if is_mirror_key key then
          Option.map
            (fun (_, ts) -> (String.sub key 2 (String.length key - 2), ts))
            (decode_entry data)
        else None)
      (Store.to_alist store)
end

(* ---- payloads ---- *)

let write_payload ~key ~value = Value.tuple [ Value.str "w"; Value.str key; value ]
let sync_payload = Value.tuple [ Value.str "s" ]

(* ---- durable at-most-once request records ---- *)

(* "rid:<id>" holds "?" from the moment a request starts mutating until its
   reply is known, then the encoded reply.  A duplicate (network-duplicated
   or retried) of a finished request gets the recorded reply; a duplicate of
   an in-flight or crash-interrupted one is dropped — re-executing it would
   broadcast the write a second time under a fresh timestamp, which is
   exactly the double-apply that breaks atomicity. *)
let rid_key rid = Printf.sprintf "rid:%d" rid
let inflight_marker = "?"

let record_inflight ctx rid = Store.set (Runtime.store ctx) ~key:(rid_key rid) inflight_marker

let record_reply ctx rid ~command args =
  Store.set (Runtime.store ctx) ~key:(rid_key rid)
    (Codec.encode_exn (Value.tuple [ Value.str command; Value.list args ]))

let recorded_reply store rid =
  match Store.get store ~key:(rid_key rid) with
  | None -> None
  | Some data when String.equal data inflight_marker -> Some None
  | Some data -> (
      match Codec.decode data with
      | Ok (Value.Tuple [ Value.Str command; Value.Listv args ]) -> Some (Some (command, args))
      | Ok _ | Error _ -> Some None)

(* ---- member state ---- *)

(* What a parked request answers once its own broadcast is delivered. *)
type action = Ack of string | Reply_value of string | Reply_state

type pending = { reply : Port_name.t; rid : int; action : action }

type state = {
  scd : Scd.t;
  table : Table.t;
  stale_reads : bool;
  pending : (int, pending) Hashtbl.t;  (** own broadcast seq -> parked request *)
  malformed : Metrics.counter;
}

let mode_key = "cfg:mode"

let persist_mode ctx ~stale_reads =
  Store.set (Runtime.store ctx) ~key:mode_key (if stale_reads then "stale" else "atomic")

let mode_in_store store =
  match Store.get store ~key:mode_key with Some "stale" -> true | Some _ | None -> false

let send_reply ctx ~reply ~rid command args =
  Runtime.send ctx ~to_:reply command (Value.int rid :: args)

let value_reply st key =
  match Table.get st.table key with
  | Some (value, _) -> ("value", [ value ])
  | None -> ("unknown_key", [])

(* The snapshot object's atomic view: the whole table at this member's
   delivery point, key-sorted so identical states always encode
   identically. *)
let state_value st =
  Value.list
    (List.map
       (fun (key, value, _) -> Value.tuple [ Value.str key; value ])
       (Table.sorted_entries st.table))

(* Resolve one parked request after its own broadcast was delivered: the
   reply (and its durable record) reflects the table at that delivery
   point. *)
let resolve ctx st ~seq =
  match Hashtbl.find_opt st.pending seq with
  | None -> () (* parked pre-crash: the requester's reply is forgotten *)
  | Some p ->
      Hashtbl.remove st.pending seq;
      let command, args =
        match p.action with
        | Ack command -> (command, [])
        | Reply_value key -> value_reply st key
        | Reply_state -> ("state", [ state_value st ])
      in
      record_reply ctx p.rid ~command args;
      send_reply ctx ~reply:p.reply ~rid:p.rid command args

(* Apply every newly delivered set: writes first (in ts order — LWW makes
   the grouping into sets immaterial), then answer the parked requests
   whose own messages are in the set. *)
let apply_deliveries ctx st =
  List.iter
    (fun set ->
      List.iter
        (fun (d : Scd.delivery) ->
          match d.Scd.payload with
          | Value.Tuple [ Value.Str "w"; Value.Str key; value ] ->
              Table.apply ctx st.table ~key ~value ~ts:d.Scd.ts
          | _ -> () (* sync markers carry no effect *))
        set;
      List.iter
        (fun (d : Scd.delivery) ->
          if d.Scd.id.Scd.origin = Scd.self st.scd then resolve ctx st ~seq:d.Scd.id.Scd.seq)
        set)
    (Scd.drain st.scd)

(* The delivery barrier: broadcast, and answer only once this member has
   delivered its own message. *)
let park ctx st ~reply ~rid payload action =
  record_inflight ctx rid;
  let id = Scd.broadcast ctx st.scd payload in
  Hashtbl.replace st.pending id.Scd.seq { reply; rid; action }

(* One handler for both objects.  A register's port type admits write and
   read, a snapshot object's update and snapshot; the runtime refuses the
   other pair on delivery, so each arm only ever sees its own object. *)
let handle_request ctx st ~reply ~rid command args =
  match recorded_reply (Runtime.store ctx) rid with
  | Some (Some (recorded, recorded_args)) -> send_reply ctx ~reply ~rid recorded recorded_args
  | Some None -> () (* in flight (or lost to a crash): never re-execute *)
  | None -> (
      match (command, args) with
      | "write", [ Value.Str key; value ] ->
          if st.stale_reads then begin
            (* The deliberate mutation, write half: acknowledge on broadcast
               instead of on delivery, so the ack can precede the write
               being readable anywhere — the classic fast-ack atomicity
               bug the linearizability oracle exists to catch. *)
            ignore (Scd.broadcast ctx st.scd (write_payload ~key ~value));
            record_reply ctx rid ~command:"written" [];
            send_reply ctx ~reply ~rid "written" []
          end
          else park ctx st ~reply ~rid (write_payload ~key ~value) (Ack "written")
      | "read", [ Value.Str key ] ->
          if st.stale_reads then begin
            (* The deliberate mutation, read half: no delivery barrier, so
               the reply can predate writes already acknowledged elsewhere. *)
            let command, args = value_reply st key in
            record_reply ctx rid ~command args;
            send_reply ctx ~reply ~rid command args
          end
          else park ctx st ~reply ~rid sync_payload (Reply_value key)
      | "update", [ Value.Str key; value ] ->
          park ctx st ~reply ~rid (write_payload ~key ~value) (Ack "updated")
      | "snapshot", [] -> park ctx st ~reply ~rid sync_payload Reply_state
      | "members", _ ->
          (* Idempotent re-join offer from a bootstrap retry. *)
          send_reply ctx ~reply ~rid "members_ok" []
      | _ -> Metrics.incr st.malformed)

let serve ctx st =
  let request_port = Runtime.port ctx 0 in
  Scd.spawn_ticker ctx st.scd;
  let rec loop () =
    (match Runtime.receive ctx [ request_port ] with
    | `Timeout -> ()
    | `Msg (_, msg) -> (
        match Scd.handle ctx st.scd msg with
        | `Handled -> apply_deliveries ctx st
        | `Unrelated -> (
            match (msg.Message.command, msg.Message.args, msg.Message.reply_to) with
            | "failure", _, _ -> ()
            | command, Value.Int rid :: args, Some reply ->
                handle_request ctx st ~reply ~rid command args;
                apply_deliveries ctx st
            | _ -> Metrics.incr st.malformed)));
    loop ()
  in
  loop ()

let make_state ctx ~scd ~table ~stale_reads =
  {
    scd;
    table;
    stale_reads;
    pending = Hashtbl.create 16;
    malformed = Metrics.counter (Runtime.ctx_metrics ctx) metric_malformed;
  }

(* Before the bootstrap introduces the group there is no Scd yet: park on
   the request port, refuse real operations with not_ready, and switch to
   serving on the first members offer. *)
let await_members ctx ~config ~stale_reads =
  let request_port = Runtime.port ctx 0 in
  let rec wait () =
    match Runtime.receive ctx [ request_port ] with
    | `Timeout -> wait ()
    | `Msg (_, msg) -> (
        match (msg.Message.command, msg.Message.args, msg.Message.reply_to) with
        | "members", [ Value.Int rid; members_arg ], Some reply -> (
            match Scd.parse_members [ members_arg ] with
            | Some members when members <> [] ->
                let scd = Scd.create ctx ~config ~members () in
                let st =
                  make_state ctx ~scd ~table:(Table.restore (Runtime.store ctx)) ~stale_reads
                in
                send_reply ctx ~reply ~rid "members_ok" [];
                serve ctx st
            | Some _ | None -> wait ())
        | _, Value.Int rid :: _, Some reply ->
            send_reply ctx ~reply ~rid "not_ready" [];
            wait ()
        | _ -> wait ())
  in
  wait ()

(* A snapshot object never stored a mode, so it recovers atomic. *)
let recover ctx =
  let store = Runtime.store ctx in
  let stale_reads = mode_in_store store in
  match Scd.recover ctx with
  | Some scd ->
      let st = make_state ctx ~scd ~table:(Table.restore store) ~stale_reads in
      serve ctx st
  | None -> await_members ctx ~config:(Scd.config_in_store store) ~stale_reads

let member_def ~def_name ~port_type : Runtime.def =
  {
    Runtime.def_name;
    provides = [ (port_type, 512) ];
    init =
      (fun ctx args ->
        match args with
        | Value.Int status_every :: Value.Int resend_max :: ([] | [ Value.Bool _ ] as mode)
          when status_every > 0 && resend_max > 0 ->
            (* A register is created with its mode and records it; a
               snapshot object has none and writes no mode record. *)
            let stale_reads =
              match mode with
              | [ Value.Bool stale_reads ] ->
                  persist_mode ctx ~stale_reads;
                  stale_reads
              | _ -> false
            in
            let config = { Scd.status_every; resend_max } in
            Scd.persist_group_config ctx config;
            await_members ctx ~config ~stale_reads
        | _ -> invalid_arg (def_name ^ ": bad creation arguments"));
    recover = Some recover;
  }

let create_members world ~def_name ~port_type ~mode ~nodes ~introduce_at =
  if Runtime.find_def world def_name = None then
    Runtime.register_def world (member_def ~def_name ~port_type);
  let args =
    Value.int Scd.default_config.status_every :: Value.int Scd.default_config.resend_max :: mode
  in
  let ports =
    List.map
      (fun at ->
        let g = Runtime.create_guardian world ~at ~def_name ~args in
        List.hd (Runtime.guardian_ports g))
      nodes
  in
  Scd.introduce world ~group:def_name ~at:introduce_at ~members:ports;
  ports

let create_group world ~nodes ?(stale_reads = false) ~introduce_at () =
  if nodes = [] then invalid_arg "Register.create_group: need at least one node";
  create_members world ~def_name ~port_type ~nodes ~introduce_at ~mode:[ Value.bool stale_reads ]

let write ctx ~register ~key ~value ~timeout =
  match
    Rpc.call ctx ~to_:register ~timeout ~attempts:1 "write" [ Value.str key; value ]
  with
  | Rpc.Reply ("written", _) -> true
  | Rpc.Reply _ | Rpc.Failure_msg _ | Rpc.Timeout -> false

let read ctx ~register ~key ~timeout =
  match Rpc.call ctx ~to_:register ~timeout ~attempts:1 "read" [ Value.str key ] with
  | Rpc.Reply ("value", [ value ]) -> Some value
  | Rpc.Reply _ | Rpc.Failure_msg _ | Rpc.Timeout -> None
