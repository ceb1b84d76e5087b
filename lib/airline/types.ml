open Dcp_wire
module Rpc = Dcp_primitives.Rpc

type flight_no = int
type date = int
type passenger = string

type reserve_reply = Ok_reserved | Full | Wait_listed | Pre_reserved | No_such_flight
type cancel_reply = Canceled | Not_reserved | Cancel_no_such_flight

let reserve_reply_command = function
  | Ok_reserved -> "ok"
  | Full -> "full"
  | Wait_listed -> "wait_list"
  | Pre_reserved -> "pre_reserved"
  | No_such_flight -> "no_such_flight"

let cancel_reply_command = function
  | Canceled -> "canceled"
  | Not_reserved -> "not_reserved"
  | Cancel_no_such_flight -> "no_such_flight"

let reserve_replies =
  [
    Vtype.reply "ok" [];
    Vtype.reply "full" [];
    Vtype.reply "wait_list" [];
    Vtype.reply "pre_reserved" [];
    Vtype.reply "no_such_flight" [];
  ]

let cancel_replies =
  [ Vtype.reply "canceled" []; Vtype.reply "not_reserved" []; Vtype.reply "no_such_flight" [] ]

let list_replies =
  [ Vtype.reply "info" [ Vtype.Tlist Vtype.Tstr ]; Vtype.reply "no_such_flight" [] ]

let flight_port_type =
  [
    Rpc.request_signature "reserve" [ Vtype.Tstr; Vtype.Tint ] ~replies:reserve_replies;
    Rpc.request_signature "cancel" [ Vtype.Tstr; Vtype.Tint ] ~replies:cancel_replies;
    Rpc.request_signature "list_passengers" [ Vtype.Tint ] ~replies:list_replies;
  ]
  @ Dcp_primitives.Two_phase.participant_signatures

let flight_admin_port_type =
  [
    Rpc.request_signature "list_passengers" [ Vtype.Tint ] ~replies:list_replies;
    Rpc.request_signature "stats" []
      ~replies:
        [
          Vtype.reply "stats"
            [ Vtype.Trecord
                [ ("dates", Vtype.Tint); ("reserved", Vtype.Tint); ("waitlisted", Vtype.Tint);
                  ("holds", Vtype.Tint) ] ];
        ];
    Rpc.request_signature "archive_date" [ Vtype.Tint ]
      ~replies:[ Vtype.reply "archived" [ Vtype.Tint ] ];
  ]

let regional_port_type =
  [
    Rpc.request_signature "reserve"
      [ Vtype.Tint; Vtype.Tstr; Vtype.Tint ]
      ~replies:reserve_replies;
    Rpc.request_signature "cancel" [ Vtype.Tint; Vtype.Tstr; Vtype.Tint ] ~replies:cancel_replies;
    Rpc.request_signature "list_passengers" [ Vtype.Tint; Vtype.Tint ] ~replies:list_replies;
  ]

let front_desk_port_type =
  [
    Rpc.request_signature "begin_transaction" [ Vtype.Tstr ]
      ~replies:[ Vtype.reply "transaction" [ Vtype.Tport ] ];
  ]

let transaction_port_type =
  [
    Rpc.request_signature "reserve" [ Vtype.Tint; Vtype.Tint ] ~replies:reserve_replies;
    Rpc.request_signature "cancel" [ Vtype.Tint; Vtype.Tint ]
      ~replies:[ Vtype.reply "deferred" [] ];
    Rpc.request_signature "undo" [] ~replies:[ Vtype.reply "undone" []; Vtype.reply "nothing_to_undo" [] ];
    Rpc.request_signature "finish" []
      ~replies:[ Vtype.reply "finished" [ Vtype.Tint; Vtype.Tint ] ];
  ]

type organization = One_at_a_time | Serializer | Monitor

let organization_of_string = function
  | "one_at_a_time" -> Some One_at_a_time
  | "serializer" -> Some Serializer
  | "monitor" -> Some Monitor
  | _ -> None

let organization_to_string = function
  | One_at_a_time -> "one_at_a_time"
  | Serializer -> "serializer"
  | Monitor -> "monitor"

type accounting = Idempotent_set | Naive_counter

let accounting_of_string = function
  | "idempotent" -> Some Idempotent_set
  | "naive" -> Some Naive_counter
  | _ -> None

let accounting_to_string = function
  | Idempotent_set -> "idempotent"
  | Naive_counter -> "naive"
