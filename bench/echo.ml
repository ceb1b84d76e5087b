(* The benches' echo guardian: one request port that accepts anything and
   answers "pong" to every message carrying a reply port. *)

open Dcp_wire
module Runtime = Dcp_core.Runtime

let def def_name : Runtime.def =
  {
    Runtime.def_name;
    provides = [ ([ Vtype.wildcard ], 64) ];
    init =
      (fun ctx _ ->
        let rec loop () =
          (match Runtime.receive ctx [ Runtime.port ctx 0 ] with
          | `Timeout -> ()
          | `Msg (_, msg) -> (
              match msg.Dcp_core.Message.reply_to with
              | Some reply -> Runtime.send ctx ~to_:reply "pong" []
              | None -> ()));
          loop ()
        in
        loop ());
    recover = None;
  }
