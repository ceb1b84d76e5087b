(** Documents: the office-automation system's transmittable abstract type.

    §2.1 lists "documents (in an office automation system)" among the
    objects guardians manipulate; §3.3 requires every transmittable type to
    fix one external rep while nodes choose their own internal
    representations.  Documents here have two implementations — a flat
    string body and a line-list body (the representation an editor-oriented
    node would prefer) — sharing one external rep. *)

open Dcp_wire

type t

val create : title:string -> author:string -> body:string -> t
(** A fresh revision-1 document in the flat representation. *)

val create_lines : title:string -> author:string -> lines:string list -> t
(** The same abstract value held as lines. *)

val title : t -> string
val author : t -> string
val revision : t -> int
val body : t -> string
val lines : t -> string list
val word_count : t -> int

val append : t -> string -> t
(** Append a paragraph; bumps the revision.  Keeps the representation. *)

val equal : t -> t -> bool
(** Representation-independent equality (same title/author/revision/body). *)

val is_flat : t -> bool

val type_name : string
val register : Transmit.registry -> unit

val to_value : t -> Value.t
(** Encode with the sending node's natural implementation. *)

val of_value_flat : Value.t -> t
val of_value_lines : Value.t -> t
