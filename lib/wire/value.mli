(** Message values.

    §2.1: "Messages will contain the values of objects" — never addresses.
    This is the closed universe of things that may appear as message
    arguments: the built-in types the system transmits automatically (§3.3),
    plus port names, tokens, and [Named] values, which are the external reps
    of user-defined transmittable types tagged with their type name (see
    {!Transmit}). *)

type t =
  | Unit
  | Bool of bool
  | Int of int
  | Real of float
  | Str of string
  | Listv of t list
  | Tuple of t list
  | Record of (string * t) list
  | Option of t option
  | Portv of Port_name.t
  | Tokenv of Token.t
  | Named of string * t  (** external rep of abstract type [name] *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** {1 Convenience constructors and accessors} *)

val bool : bool -> t
val int : int -> t
val real : float -> t
val str : string -> t
val list : t list -> t
val tuple : t list -> t
val record : (string * t) list -> t
val option : t option -> t
val port : Port_name.t -> t
val token : Token.t -> t

exception Type_mismatch of string
(** Raised by the [get_*] accessors when the value has the wrong shape. *)

val get_bool : t -> bool
val get_int : t -> int
val get_str : t -> string
val get_list : t -> t list
val get_option : t -> t option
val get_port : t -> Port_name.t

val field : t -> string -> t
(** [field v name] extracts a record field. @raise Type_mismatch otherwise. *)
