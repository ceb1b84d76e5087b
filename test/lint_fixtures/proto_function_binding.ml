(* Whole-program fixture: the sent command comes from a binding written
   [let f = function ...].  Only that binding's returned names make the
   send site's names known, so the flow edge exists only when the bare
   [function] counts as a one-parameter function. *)

let command_of = function
  | `Ask -> "probe"
  | `Tell -> "report"

let client ctx peer kind = Runtime.send ctx ~to_:peer (command_of kind) []

let serve ctx state msg =
  match msg.Message.command with
  | "probe" -> touch state
  | "report" -> touch state
  | _ -> ()
