(** Tokens: sealed capabilities for guardian-local objects.

    §2.1: "It is possible to send a token for an object in a message; a token
    is an external name for the object, which can be returned to the guardian
    that owns the object to request some manipulation of the object.  (A
    token is a sealed capability that can be unsealed only by the creating
    guardian.)"

    The seal is a keyed mix of the owner's secret and the object id; any
    guardian can read [owner] (to know where to send the token back) but only
    the holder of the secret can recover the object id, and a forged or
    tampered token fails to unseal. *)

type t

val owner : t -> int
(** Guardian id of the creator. *)

val seal : secret:int64 -> owner:int -> obj:int -> t
(** Seal object id [obj] under the creator's [secret]. *)

val unseal : secret:int64 -> owner:int -> t -> int option
(** Recover the object id.  [None] if the token was not sealed by
    [owner]/[secret] or was tampered with. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** Wire representation (opaque to everyone but the owner). *)

val to_wire : t -> int * int64 * int64
val of_wire : int * int64 * int64 -> t
