open Dcp_wire

type t = {
  command : string;
  args : Value.t list;
  reply_to : Port_name.t option;
  sent_at : Dcp_sim.Clock.time;
  typed : Command.payload option;
}

let make ?reply_to ~sent_at command args = { command; args; reply_to; sent_at; typed = None }

let failure ~reason ~sent_at =
  { command = "failure"; args = [ Value.str reason ]; reply_to = None; sent_at; typed = None }

let is_failure t = String.equal t.command "failure"

let arguments t = match t.typed with None -> t.args | Some payload -> Command.payload_values payload

let pp fmt t =
  Format.fprintf fmt "%s(%a)" t.command
    (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ") Value.pp)
    (arguments t);
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
    (target, { command; args; reply_to; sent_at; typed = None })
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

(* The envelope around its arguments: the head up to the [args] tag, and
   the tail after the arguments. *)
let write_head enc ~target command =
  Codec.start enc;
  Codec.add_run enc run_target;
  Codec.add_port enc target;
  Codec.add_run enc run_command;
  Codec.add_str enc command;
  Codec.add_run enc run_args

let write_tail enc reply_to sent_at =
  (match reply_to with
  | None -> Codec.add_run enc run_no_reply
  | Some p ->
      Codec.add_run enc run_reply;
      Codec.add_port enc p);
  Codec.add_run enc run_sent_at;
  Codec.add_varint enc sent_at

let values_to_wire enc ~target ?reply_to ~sent_at command args =
  match
    write_head enc ~target command;
    Codec.add_items enc args;
    write_tail enc reply_to sent_at
  with
  | () -> Codec.finish enc
  | exception Codec.Codec_error e -> Error e

let to_wire enc ~target t =
  values_to_wire enc ~target ?reply_to:t.reply_to ~sent_at:t.sent_at t.command t.args

let command_to_wire enc ~target ?reply_to ~sent_at command x =
  match
    write_head enc ~target (Command.name command);
    Command.write_args enc command x;
    write_tail enc reply_to sent_at
  with
  | () -> Codec.finish enc
  | exception Codec.Codec_error e -> Error e

exception Off_layout

let expect r run = if not (Codec.skip_run r run) then raise_notrace Off_layout

let no_commands _ = None

(* After the arguments: the reply port, the send time, and the end. *)
let finish r target command args typed =
  let reply_to =
    if Codec.skip_run r run_no_reply then None
    else begin
      expect r run_reply;
      Some (Codec.read_port r)
    end
  in
  expect r run_sent_at;
  let sent_at = Codec.read_varint r in
  if not (Codec.at_end r) then raise_notrace Off_layout;
  (target, { command; args; reply_to; sent_at; typed })

(* The in-place reader is one per domain, pointed at each body in turn:
   nothing it reads calls back into [of_wire]. *)
let wire_reader = Dcp_sim.Exec.domain_local (fun () -> Codec.reader Codec.default_config "")

(* The arguments of a message to a typed port are read by its declaration,
   any other message's as values; arguments the declaration refuses are
   read again, from the body's start, as values. *)
let rec read config commands r body =
  Codec.reread r config body;
  expect r run_target;
  let target = Codec.read_port r in
  expect r run_command;
  let command = Codec.read_str config r in
  expect r run_args;
  match commands target with
  | None -> finish r target command (Codec.read_items config r) None
  | Some decl -> (
      match Command.read_args config decl command r with
      | Some payload -> finish r target command [] (Some payload)
      | None -> read config no_commands r body)

let of_wire ~config ?(commands = no_commands) body =
  match read config commands (Dcp_sim.Exec.local_get wire_reader) body with
  | decoded -> Ok decoded
  | exception Off_layout -> Error (Codec.Malformed "not a message envelope")
  | exception Codec.Codec_error e -> Error e

type handler = Handler : 'a Command.t * (t -> 'a -> unit) -> handler

let handle command f = Handler (command, f)

let rec dispatch handlers msg =
  match (handlers, msg.typed) with
  | Handler (command, f) :: rest, Some payload -> (
      match Command.cast command payload with
      | Some x ->
          f msg x;
          true
      | None -> dispatch rest msg)
  | [], _ | _, None -> false
