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

val int_in_bounds : config -> int -> bool

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
