open Dcp_wire
module Runtime = Dcp_core.Runtime
module Message = Dcp_core.Message
module Port = Dcp_core.Port
module Clock = Dcp_sim.Clock


type outcome = Received | Failed of string | Timed_out

let ack_port_type = [ Vtype.signature "ack" [] ]

let send ctx ~to_ ?(timeout = Clock.s 10) command args =
  let ack = Runtime.new_port ctx ack_port_type in
  Runtime.send ctx ~to_ ~reply_to:(Port.name ack) command args;
  let outcome =
    match Runtime.receive ctx ~timeout [ ack ] with
    | `Timeout -> Timed_out
    | `Msg (_, msg) -> (
        match (msg.Message.command, msg.Message.args) with
        | "ack", [] -> Received
        | "failure", [ Value.Str reason ] -> Failed reason
        | _ -> Failed "unexpected acknowledgement")
  in
  Runtime.remove_port ctx ack;
  outcome

let acknowledge ctx msg =
  match msg.Message.reply_to with
  | None -> ()
  | Some reply -> Runtime.send ctx ~to_:reply "ack" []

let receive_synchronized ctx ?timeout ports =
  match Runtime.receive ctx ?timeout ports with
  | `Timeout -> `Timeout
  | `Msg (p, msg) ->
      acknowledge ctx msg;
      `Msg (p, msg)
