open Dcp_wire
module Rpc = Dcp_primitives.Rpc
module Clock = Dcp_sim.Clock

let timeout = Clock.ms 500

let total_balance ctx ~branches =
  let query acc branch =
    match acc with
    | Error _ -> acc
    | Ok sum -> (
        match Rpc.call ctx ~to_:branch ~timeout ~attempts:3 "total" [] with
        | Rpc.Reply ("total", [ Value.Int amount ]) -> Ok (sum + amount)
        | Rpc.Reply _ -> Error "unexpected total reply"
        | Rpc.Failure_msg reason -> Error reason
        | Rpc.Timeout -> Error (Format.asprintf "branch %a unreachable" Port_name.pp branch))
  in
  List.fold_left query (Ok 0) branches

let balance_of ctx ~branch ~account =
  match Rpc.call ctx ~to_:branch ~timeout ~attempts:3 "balance" [ Value.str account ] with
  | Rpc.Reply ("balance", [ Value.Int amount ]) -> Ok amount
  | Rpc.Reply ("no_account", _) -> Error "no such account"
  | Rpc.Reply _ -> Error "unexpected balance reply"
  | Rpc.Failure_msg reason -> Error reason
  | Rpc.Timeout -> Error "branch unreachable"
