(** Transmittable abstract types (§3.3).

    "Every transmittable abstract type has an associated external rep, which
    is the representation to be used in messages.  Each implementation of a
    transmittable type must provide two operations, encode and decode."

    A {!module-type-S} packages one *implementation* of an abstract type:
    its local representation ['t], the system-wide external rep type, and the
    encode/decode pair.  Different nodes may register different
    implementations of the same [type_name] (the paper's hash-table node vs.
    tree node); what is fixed system-wide is the external rep, which the
    {!registry} records and checks.

    Encoding produces a [Value.Named (type_name, rep)] so the receiving side
    knows which decoder applies, and so signature checking can keep abstract
    types abstract. *)

exception Encode_failure of string
(** Raised by an [encode] that refuses to transmit a value — e.g. one
    holding guardian-dependent information (§3.3 reason 3), or a type that
    forbids transmission outright (reason 4). *)

exception Decode_failure of string

module type S = sig
  type t

  val type_name : string
  val external_rep : Vtype.t
  (** Shape of the external rep — fixed system-wide. *)

  val encode : t -> Value.t
  (** Local representation → external rep.  May raise {!Encode_failure}. *)

  val decode : Value.t -> t
  (** External rep → local representation.  May raise {!Decode_failure}. *)
end

type 'a impl = (module S with type t = 'a)

val to_value : 'a impl -> 'a -> Value.t
(** Encode and tag; checks the produced rep against [external_rep] and
    raises {!Encode_failure} when an implementation misbehaves. *)

val of_value : 'a impl -> Value.t -> 'a
(** Untag (checking the type name) and decode.
    @raise Decode_failure on a name or shape mismatch. *)

(** {1 System-wide registry}

    The registry plays the role of CLU's description library: it records,
    per abstract type name, the single external rep that every node must
    agree on, and rejects conflicting registrations. *)

type registry

val registry : unit -> registry

val register : registry -> type_name:string -> external_rep:Vtype.t -> unit
(** @raise Invalid_argument if [type_name] is registered with a different
    external rep — the fixed meaning of a type cannot vary per node. *)

val check_named : registry -> Value.t -> (unit, string) result
(** Deep check: every [Named (n, rep)] inside the value must name a
    registered type and carry a rep matching its registered shape. *)

val check_all : registry -> Value.t list -> (unit, string) result
(** [check_named] of each value in turn, stopping at the first error: a
    message's arguments are checked as they are, not as one list value. *)
