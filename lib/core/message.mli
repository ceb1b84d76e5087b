(** Messages: a command identifier plus arguments (§3.1).

    "A message consists of a command identifier, and zero or more arguments
    ...  For messages sent to request a service, the command identifier
    corresponds to the name of an operation to be invoked."

    The optional reply port "is really an extra argument of the message, but
    it is singled out in the syntax to clarify the intent of the send"
    (§3.4); here it is singled out as a record field.  [sent_at] timestamps
    the send for latency accounting and travels with the message. *)

open Dcp_wire

type t = {
  command : string;
  args : Value.t list;  (** [[]] on a message delivered with [typed] *)
  reply_to : Port_name.t option;
  sent_at : Dcp_sim.Clock.time;
  typed : Command.payload option;
      (** the arguments as read by a typed port's declaration
          ({!Dcp_core.Runtime.accept}); [None] on every other port *)
}

val make :
  ?reply_to:Port_name.t -> sent_at:Dcp_sim.Clock.time -> string -> Value.t list -> t

val failure : reason:string -> sent_at:Dcp_sim.Clock.time -> t
(** The system-generated [failure(string)] message of §3.4.  Failure
    messages never carry a reply port (no failure cascades). *)

val is_failure : t -> bool

val pp : Format.formatter -> t -> unit

(** {1 Wire envelope}

    On the wire a message travels together with its target port name, as
    the record [{target; command; args; reply; sent_at}]. *)

val envelope : target:Port_name.t -> t -> Value.t

val of_envelope : Value.t -> (Port_name.t * t, string) result

val to_wire : Codec.encoder -> target:Port_name.t -> t -> (string, Codec.error) result
(** The runtime's writer: the same bytes and the same first error as
    [Codec.encode_with enc (envelope ~target t)], written in place, with
    no envelope record built, except that the send time is exempt from
    [int_bits] (see {!of_wire}): past the bound it is written as the
    record path writes it without one. *)

val values_to_wire :
  Codec.encoder ->
  target:Port_name.t ->
  ?reply_to:Port_name.t ->
  sent_at:Dcp_sim.Clock.time ->
  string ->
  Value.t list ->
  (string, Codec.error) result
(** {!to_wire} of [make ?reply_to ~sent_at command args], without the
    message record. *)

val command_to_wire :
  Codec.encoder ->
  target:Port_name.t ->
  ?reply_to:Port_name.t ->
  sent_at:Dcp_sim.Clock.time ->
  'a Command.t ->
  'a ->
  (string, Codec.error) result
(** The typed writer: the same bytes and the same first error as
    {!to_wire} of the message with the command's Value arguments
    ({!Command.payload_values}). *)

val of_wire :
  config:Codec.config ->
  ?commands:(Port_name.t -> Command.decl option) ->
  string ->
  (Port_name.t * t, Codec.error) result
(** The runtime's reader, and the only one: §3.3 gives the envelope one
    external rep, the layout {!to_wire} writes, and [of_wire] reads it in
    place, with the field names matched byte by byte.  Any other body
    (another field count, name, order or tag, or trailing bytes) is
    [Malformed]; a bound exceeded in the layout gives the error
    [Codec.decode] gives.  What it accepts it reads as
    [Result.map of_envelope (Codec.decode ~config body)] does.  The one
    exemption is the send time, which is the runtime's clock, not a value
    the program transmits (§3.3 bounds those): it is read without the
    [int_bits] check, so a body that the record path refuses for its send
    time alone reads as the record path reads it without the bound, and
    a world of {!Codec.config_1979} keeps working past 2{^ 23} ns.  When
    [commands] gives a declaration for the target, the arguments are read
    by it, as [typed]; arguments it refuses are read as values, so the
    port's type check rejects them as on an untyped port. *)

(** {1 Dispatch on a typed port} *)

type handler

val handle : 'a Command.t -> (t -> 'a -> unit) -> handler
(** The handler of one command: it gets the message and its arguments. *)

val dispatch : handler list -> t -> bool
(** Run the first handler whose command the message's [typed] payload
    is; [false] when none is (a message with no payload included). *)
