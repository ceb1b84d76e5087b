(** The complex-number example of §3.3.

    "A simple example is complex numbers, where on one node the
    representation might be real/imaginary coordinates, while on another
    polar coordinates might be used; the external rep might be the
    real/imaginary coordinates."

    Paper API (§3.3): only tests reach this module; it stays as the
    paper's first example of an external rep. *)

open Dcp_wire

type t

val cartesian : re:float -> im:float -> t
(** A complex number held in cartesian representation. *)

val polar : modulus:float -> arg:float -> t
(** The same abstract type held in polar representation. *)

val re : t -> float
val im : t -> float
val modulus : t -> float
val add : t -> t -> t
(** Result uses the left operand's representation. *)

val mul : t -> t -> t
val approx_equal : ?eps:float -> t -> t -> bool
val is_cartesian : t -> bool

val transmit_cartesian : t Transmit.impl
val transmit_polar : t Transmit.impl
(** Two node-local implementations sharing the cartesian external rep. *)
