(** Typed commands: one declaration gives a message's signature, codec and
    dispatch.

    §3.2: a port type lists the messages a port accepts, and "port types
    and guardian headers enable compile time type checking of all message
    passing".  A {!Value.t} message is checked against its port type only
    when it is sent and received ({!Vtype.check_message}); a command
    declared here carries its arguments' OCaml type instead, so the
    compiler checks every send and every handler, and the runtime writes
    and reads the arguments without building a {!Value.t} tree.

    A command is built from argument types ({!ty}).  From that one value
    come its {!Vtype.signature}, a writer that produces exactly the bytes
    {!Codec} writes for the Value form, its encoded size, and a reader
    that decodes straight from a {!Codec.reader}.  The reader accepts
    exactly what {!Codec.decode} followed by {!Vtype.check} accepts, and
    applies the same codec bounds ([int_bits], [max_string]); a refused
    input is left to the Value path, which gives the error a caller
    reports. *)

(** {1 Argument types} *)

type 'a ty

val int : int ty
val str : string ty
val port : Port_name.t ty

val any : Value.t ty
(** [Vtype.Tany]: any value, carried as a {!Value.t}. *)

val option : 'a ty -> 'a option ty
val list : 'a ty -> 'a list ty
val pair : 'a ty -> 'b ty -> ('a * 'b) ty
val triple : 'a ty -> 'b ty -> 'c ty -> ('a * 'b * 'c) ty

val vtype : 'a ty -> Vtype.t

(** {1 Runs: lists kept as their bytes}

    A list that a receiver mostly compares rather than reads, such as an
    anti-entropy digest's entries, can stay in the bytes it came in.  A
    run is [count] elements as [list elt]'s writer writes them after the
    list's tag and count: [len] bytes of [body] from [off]. *)

type source
(** Where a run's bytes came from: a reader, or its elements' writer
    ({!run_of_items}). *)

type 'a run = private { body : string; off : int; len : int; count : int; source : source }

val run : 'a ty -> 'a run ty
(** [list elt], kept as a run.  Its Vtype, bytes, size and errors are
    [list elt]'s.  Its reader accepts, refuses and errs on exactly the
    inputs [list elt]'s does, with one walk inside {!Codec}
    ({!Codec.skip_typed}) that builds no element.  A written run is
    copied and sized by its length where no element can break the bounds
    (63-bit ints and no item longer than [max_string]), and walked first
    under others, to raise where [list elt]'s writer would.  A run as
    read may hold a varint in more bytes than the writer uses, so it is
    written and sized as its elements.
    @raise Invalid_argument when a written run's bytes are not elements
    of [elt]. *)

type 'a item = private string

type writer
(** A scratch encoder for {!item}, under no bounds.  Not reentrant: one
    per domain. *)

val writer : unit -> writer

val item : writer -> 'a ty -> 'a -> 'a item
(** The bytes [ty]'s writer writes for [x], under no bounds. *)

val run_of_items : 'a item list -> 'a run
(** The items, in order, as one written run. *)

val items : 'a ty -> 'a run -> 'a list
(** The elements of a run made with the same [ty]. *)

val size_of : ?config:Codec.config -> 'a ty -> 'a -> (int, Codec.error) result
(** [Codec.encoded_size ?config] of [x]'s Value form, computed from [x]. *)

(** {1 Argument lists} *)

type 'a args

val args1 : 'a ty -> 'a args
val args2 : 'a ty -> 'b ty -> ('a * 'b) args
val args3 : 'a ty -> 'b ty -> 'c ty -> ('a * 'b * 'c) args

val args5 :
  'a ty -> 'b ty -> 'c ty -> 'd ty -> 'e ty -> ('a * 'b * 'c * 'd * 'e) args

(** {1 Commands} *)

type 'a t

val make : ?replies:Vtype.reply list -> string -> 'a args -> 'a t
(** [make name args]: the command [name] with arguments [args];
    [replies] as in {!Vtype.signature}. *)

val name : 'a t -> string

val failure : string t
(** §3.4's [failure(string)], which every port accepts. *)

val encoded_size : ?config:Codec.config -> 'a t -> 'a -> (int, Codec.error) result
(** The size of the command as one value, its name then its arguments:
    [Codec.encoded_size ?config (Value.tuple (Value.str name :: args))]
    where [args] is the Value form of [x] ({!payload_values}), computed
    from [x]. *)

val write_args : Codec.encoder -> 'a t -> 'a -> unit
(** What {!Codec.add_items} writes for the Value form of [x]: the count,
    then each argument.  @raise Codec.Codec_error as {!Codec.encode_with}
    errs. *)

val check_named : 'a t -> (Value.t -> (unit, string) result) -> 'a -> (unit, string) result
(** Run a check ({!Transmit.check_named}) over each {!any} argument, left to
    right, stopping at the first error; [Ok ()] at once for a command
    without one. *)

(** {1 Ports declared from commands} *)

type cmd = Cmd : 'a t -> cmd

type decl
(** The commands a port accepts, and implicitly {!failure}. *)

val decl : cmd list -> decl
(** @raise Invalid_argument on two commands of one name, or one named
    ["failure"] or ["*"]. *)

val port_type : decl -> Vtype.port_type
(** The declaration's signatures, in order. *)

val declares : decl -> Vtype.port_type -> bool
(** Whether the port type is exactly {!port_type}'s. *)

(** {1 Decoded arguments} *)

type payload = Payload : 'a t * 'a -> payload

val read_args : Codec.config -> decl -> string -> Codec.reader -> payload option
(** The arguments of command [name] as the reader holds them after an
    envelope's [args] tag: the count, then each argument.  [None] when the
    declaration lacks [name] or the input is anything but arguments that
    {!Vtype.check_message} accepts; a codec error raises
    {!Codec.Codec_error}. *)

val cast : 'a t -> payload -> 'a option
(** The arguments, if the payload is this command's. *)

val payload_values : payload -> Value.t list
(** The Value form of the arguments. *)
