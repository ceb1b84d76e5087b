open Dcp_wire
module Runtime = Dcp_core.Runtime
module Clock = Dcp_sim.Clock

let def_name = "scd_snapshot"

let state_entry_type = Vtype.Ttuple [ Vtype.Tstr; Vtype.Tany ]

let port_type =
  [
    Rpc.request_signature "update" [ Vtype.Tstr; Vtype.Tany ]
      ~replies:[ Vtype.reply "updated" []; Vtype.reply "not_ready" [] ];
    Rpc.request_signature "snapshot" []
      ~replies:
        [ Vtype.reply "state" [ Vtype.Tlist state_entry_type ]; Vtype.reply "not_ready" [] ];
    Scd.members_signature;
  ]
  @ Scd.signatures

let create_group world ~nodes ~introduce_at () =
  if nodes = [] then invalid_arg "Snapshot.create_group: need at least one node";
  Register.create_members world ~def_name ~port_type ~nodes ~introduce_at ~mode:[]

let update ctx ~snapshot ~key ~value ~timeout =
  match
    Rpc.call ctx ~to_:snapshot ~timeout ~attempts:1 "update" [ Value.str key; value ]
  with
  | Rpc.Reply ("updated", _) -> true
  | Rpc.Reply _ | Rpc.Failure_msg _ | Rpc.Timeout -> false

let scan ctx ~snapshot ~timeout =
  match Rpc.call ctx ~to_:snapshot ~timeout ~attempts:1 "snapshot" [] with
  | Rpc.Reply ("state", [ Value.Listv entries ]) ->
      List.fold_left
        (fun acc v ->
          match (acc, v) with
          | Some parsed, Value.Tuple [ Value.Str key; value ] -> Some ((key, value) :: parsed)
          | _, _ -> None)
        (Some []) entries
      |> Option.map List.rev
  | Rpc.Reply _ | Rpc.Failure_msg _ | Rpc.Timeout -> None
