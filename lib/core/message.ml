open Dcp_wire

type t = {
  command : string;
  args : Value.t list;
  reply_to : Port_name.t option;
  sent_at : Dcp_sim.Clock.time;
}

let make ?reply_to ~sent_at command args = { command; args; reply_to; sent_at }
let failure ~reason ~sent_at = { command = "failure"; args = [ Value.str reason ]; reply_to = None; sent_at }
let is_failure t = String.equal t.command "failure"

let pp fmt t =
  Format.fprintf fmt "%s(%a)" t.command
    (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ") Value.pp)
    t.args;
  match t.reply_to with
  | None -> ()
  | Some p -> Format.fprintf fmt " replyto %a" Port_name.pp p

let envelope ~target t =
  Value.record
    [
      ("target", Value.port target);
      ("command", Value.str t.command);
      ("args", Value.list t.args);
      ("reply", Value.option (Option.map Value.port t.reply_to));
      ("sent_at", Value.int t.sent_at);
    ]

let of_envelope v =
  match
    let target = Value.get_port (Value.field v "target") in
    let command = Value.get_str (Value.field v "command") in
    let args = Value.get_list (Value.field v "args") in
    let reply_to = Option.map Value.get_port (Value.get_option (Value.field v "reply")) in
    let sent_at = Value.get_int (Value.field v "sent_at") in
    (target, { command; args; reply_to; sent_at })
  with
  | result -> Ok result
  | exception Value.Type_mismatch reason -> Error reason

(* The envelope's constant runs: what its encoding holds between the five
   payloads.  Only the sample values' constructors matter. *)
let any_port = Port_name.make ~node:0 ~guardian:0 ~index:0 ~uid:0
let run_target = Codec.record_head 5 ^ Codec.field_head "target" (Value.port any_port)
let run_command = Codec.field_head "command" (Value.str "")
let run_args = Codec.field_head "args" (Value.list [])
let run_no_reply = Codec.field_head "reply" (Value.option None)
let run_reply = Codec.field_head "reply" (Value.option (Some (Value.port any_port)))
let run_sent_at = Codec.field_head "sent_at" (Value.int 0)

let to_wire enc ~target t =
  match
    Codec.start enc;
    Codec.add_run enc run_target;
    Codec.add_port enc target;
    Codec.add_run enc run_command;
    Codec.add_str enc t.command;
    Codec.add_run enc run_args;
    Codec.add_items enc t.args;
    (match t.reply_to with
    | None -> Codec.add_run enc run_no_reply
    | Some p ->
        Codec.add_run enc run_reply;
        Codec.add_port enc p);
    Codec.add_run enc run_sent_at;
    Codec.add_int enc t.sent_at
  with
  | () -> Codec.finish enc
  | exception Codec.Codec_error e -> Error e

exception Off_layout

let expect r run = if not (Codec.skip_run r run) then raise_notrace Off_layout

let of_wire ~config body =
  match
    let r = Codec.reader config body in
    expect r run_target;
    let target = Codec.read_port r in
    expect r run_command;
    let command = Codec.read_str config r in
    expect r run_args;
    let args = Codec.read_items config r in
    let reply_to =
      if Codec.skip_run r run_no_reply then None
      else begin
        expect r run_reply;
        Some (Codec.read_port r)
      end
    in
    expect r run_sent_at;
    let sent_at = Codec.read_int config r in
    if not (Codec.at_end r) then raise_notrace Off_layout;
    (target, { command; args; reply_to; sent_at })
  with
  | decoded -> Ok (Ok decoded)
  | exception (Off_layout | Codec.Codec_error _) ->
      (* anything else, well formed or not, takes the general path, which
         gives the error or the envelope a deviation calls for *)
      Result.map of_envelope (Codec.decode ~config body)
