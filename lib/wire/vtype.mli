(** Type descriptions and message signatures.

    §3.2: ports are "described by messages that can be sent to them", and
    "port types and guardian headers enable compile time type checking of all
    message passing".  Here the host language cannot see the embedded
    message vocabulary, so the same checking runs when a send is issued and
    when a message is received — against the same declared signatures a CLU
    library would have held. *)

type t =
  | Tunit
  | Tbool
  | Tint
  | Treal
  | Tstr
  | Tlist of t
  | Ttuple of t list
  | Trecord of (string * t) list
  | Toption of t
  | Tport
  | Ttoken
  | Tnamed of string
      (** abstract transmittable type, identified by its registered name *)
  | Tany  (** matches any transmittable value; used by generic system ports *)

val to_string : t -> string
val equal : t -> t -> bool

val check : t -> Value.t -> (unit, string) result
(** Structural check of a value against a type.  [Tnamed n] accepts
    [Value.Named (n, _)] — the external rep's own shape is checked by the
    {!Transmit} registry when the type is registered. *)

(** {1 Message signatures} *)

type reply = { reply_command : string; reply_args : t list }

type signature = {
  command : string;
  args : t list;
  replies : reply list;
      (** expected responses; empty means no response is expected (§3.2:
          "to describe a message with no expected responses, the replies
          part is omitted") *)
}

val signature : ?replies:reply list -> string -> t list -> signature
val reply : string -> t list -> reply

type port_type = signature list
(** The messages a port accepts. *)

val wildcard : signature
(** A signature with the reserved command ["*"]: a port type containing it
    accepts every message unchecked.  Used by generic relays (e.g. the RPC
    layer's reply ports) whose vocabulary is not fixed at one declaration
    site. *)

val check_message : port_type -> command:string -> Value.t list -> (unit, string) result
(** Check a (command, args) pair against a port type: the command must be
    declared and every argument must match.  §3.4's [failure (string)] is
    declared implicitly on every port type.  One scan of the port type;
    a message that checks allocates nothing. *)
