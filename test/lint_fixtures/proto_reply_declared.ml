(* Whole-program fixture: "lookup" is declared with the reply "ok".  This
   unit produces "ok"; it never consumes it, so only "lookup" flows into
   it, whoever else sends an "ok". *)

let port_type = Rpc.request_signature "lookup" [] ~replies:[ Vtype.reply "ok" [] ]

let client ctx peer = Runtime.send ctx ~to_:peer "lookup" []

let serve ctx msg =
  match (msg.Message.command, msg.Message.reply_to) with
  | "lookup", Some reply -> Runtime.send ctx ~to_:reply "ok" []
  | _ -> ()
