(** Binary message codec.

    §3.3: "the system can build and decompose messages consisting of objects
    of built-in types", and "within a distributed system, the meaning of a
    type must be fixed and invariant over all the nodes ... the bounds on
    legal integer values must be defined system-wide".

    The codec serialises a {!Value.t} into a compact byte string and back.
    A {!config} fixes the system-wide meaning of types: the signed-integer
    width every node must respect (the paper's 24-bit example), and limits on
    string and total message sizes.  Encoding an out-of-range integer is an
    error — exactly why the paper says "results of integer arithmetic must
    be checked to ensure they are within bounds.  Otherwise it might be
    impossible to send an integer value in a message because it was too
    big." *)

type config = {
  int_bits : int;  (** signed width of transmittable integers, 2..63 *)
  max_string : int;  (** longest transmittable string *)
  max_message : int;  (** largest encoded message body *)
}

val default_config : config
(** 63-bit integers, 1 MiB strings, 4 MiB messages. *)

val config_1979 : config
(** The paper's flavour: 24-bit integers, 4 KiB strings, 64 KiB messages. *)

type error =
  | Int_out_of_bounds of int
  | String_too_long of int
  | Message_too_long of int
  | Malformed of string  (** decode-side: truncated or corrupt input *)

val pp_error : Format.formatter -> error -> unit

exception Codec_error of error

val encode : ?config:config -> Value.t -> (string, error) result
val decode : ?config:config -> string -> (Value.t, error) result

(** {2 Reusable encoders}

    [encode] allocates a fresh scratch buffer per call.  A long-lived
    sender (the runtime encodes every message it routes) should mint one
    {!encoder} and call {!encode_with}: the scratch buffer is reused
    across calls and the walk allocates nothing per node, so steady-state
    encoding allocates only the output string (and, per token, the
    tuple {!Token.to_wire} returns). *)

type encoder

val encoder : ?config:config -> unit -> encoder
val encoder_config : encoder -> config

val encode_with : encoder -> Value.t -> (string, error) result
(** Same contract as {!encode} with the same [config].  Not reentrant:
    the returned string is built in [encoder]'s scratch buffer, which the
    next [encode_with] on the same handle reuses. *)

val encode_with_exn : encoder -> Value.t -> string
(** @raise Codec_error *)

val encode_exn : ?config:config -> Value.t -> string
(** @raise Codec_error *)

val decode_exn : ?config:config -> string -> Value.t
(** @raise Codec_error *)

val encoded_size : ?config:config -> Value.t -> (int, error) result
(** Size of the encoding without materialising it: the same result as
    [Result.map String.length (encode ?config v)], errors included, from a
    walk that writes nothing and allocates only its result. *)

(** {2 Writing and reading in place}

    A caller that knows a value's layout ahead of time can write and read
    its encoding without building the {!Value.t}, as the runtime does for
    every message envelope ({!Dcp_core.Message.to_wire} and [of_wire]).
    The layout's constant runs (a record header, a field name and the
    tags up to the next payload) come from {!record_head} and
    {!field_head}; each is written as one string and matched byte by
    byte.  Between the runs go the payloads, written and read by the
    codec's own steps with the checks {!encode_with} and {!decode} make
    there; where those return an error, these raise {!Codec_error} with
    it. *)

val record_head : int -> string
(** [record_head n]: the bytes that open a record of [n] fields. *)

val field_head : string -> Value.t -> string
(** [field_head name v]: the bytes of field [name] holding [v] up to
    [v]'s payload: the name, then [v]'s tag, and for [Option (Some x)]
    also [x]'s.  Only [v]'s outer constructors matter. *)

val start : encoder -> unit
(** Begin a new output in the encoder's scratch buffer; [add_*] append
    to it: [add_run] constant bytes, the others one payload. *)

val add_run : encoder -> string -> unit

val add_sub : encoder -> string -> int -> int -> unit
(** [add_sub enc s off len]: bytes [off] to [off + len - 1] of [s], as
    {!add_run} would add them. *)

val add_port : encoder -> Port_name.t -> unit
val add_str : encoder -> string -> unit
val add_int : encoder -> int -> unit
val add_items : encoder -> Value.t list -> unit

val finish : encoder -> (string, error) result
(** The output since {!start}, or [Message_too_long] past
    [max_message]. *)

type reader

val reader : config -> string -> reader
(** Raises where {!decode} fails on the length alone. *)

val reread : reader -> config -> string -> unit
(** Point a reader at a new input, from its start, as {!reader} would
    make one: a hot reader allocates no reader per input. *)

val skip_run : reader -> string -> bool
(** Step over the given bytes if the input continues with them; [false]
    (and no step) otherwise. *)

val bytes_at : string -> int -> string -> bool
(** [bytes_at input pos s]: whether [input] holds [s] from [pos] on. *)

val position : reader -> int
val input : reader -> string
(** Where the reader is, in the input it reads. *)

val reader_at : string -> int -> reader
(** A reader of [input] from [pos], for bytes inside an input a reader
    has already accepted: it makes no length check.
    @raise Invalid_argument unless [0 <= pos <= String.length input]. *)

val read_port : reader -> Port_name.t
val read_str : config -> reader -> string
val read_int : config -> reader -> int
val read_items : config -> reader -> Value.t list
val at_end : reader -> bool

val add_varint : encoder -> int -> unit
val read_varint : reader -> int
(** An int payload as {!add_int} and {!read_int} write and read it,
    without the [int_bits] check: §3.3 bounds the values a program
    transmits, not what the runtime writes beside them (the envelope's
    send time). *)

(** {2 Steps of a typed layout}

    {!Command} writes, sizes and reads each argument from its declared
    type rather than from a {!Value.t}: one tag byte, then the payload.
    These are the codec's own steps for that, with the checks it makes
    there (raising {!Codec_error}). *)

val tag : Value.t -> int
(** The tag byte that opens [v]'s encoding; only [v]'s outer constructor
    matters. *)

val add_byte : encoder -> int -> unit
val add_count : encoder -> int -> unit
(** A collection's element count or a string's length. *)

val add_value : encoder -> Value.t -> unit
(** A whole value, tag included. *)

val count_size : int -> int
val int_size : config -> int -> int
val str_size : config -> string -> int
val port_size : Port_name.t -> int
(** Payload sizes: what [add_count], [add_int], [add_str] and
    [add_port] write. *)

val value_size : config -> Value.t -> int
(** What [add_value] writes. *)

val read_byte : reader -> int
val read_count : reader -> int
(** An element count; [Malformed] when negative. *)

val read_value : config -> reader -> Value.t
(** A whole value, tag included. *)

val skip_typed : config -> reader -> Vtype.t -> int -> bool
(** [skip_typed config r t n]: step over [n] values of type [t] as
    {!Command}'s typed readers read them, with the checks they make, in
    their order, building nothing but what a {!Vtype.Tany} holds.  [false]
    at the first tag or count [t] does not admit, where those readers
    refuse; raises {!Codec_error} where they raise it.
    @raise Invalid_argument on reaching a part of [t] that {!Command} has
    no reader for ([Tunit], [Tbool], [Treal], [Trecord], [Ttoken],
    [Tnamed]). *)
