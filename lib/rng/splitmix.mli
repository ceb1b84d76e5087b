(** SplitMix64 pseudo-random number generator.

    A small, fast, splittable PRNG (Steele, Lea & Flood, OOPSLA 2014) used as
    the deterministic randomness source for the whole simulator.  Each
    generator is a mutable 64-bit state advanced by a fixed odd increment
    ("gamma").  [split] derives an independent stream, which lets every
    subsystem own its own generator while the whole run stays reproducible
    from a single seed. *)

type t

val of_int : int -> t
(** [of_int seed] is a fresh generator seeded with [seed]. *)

val next : t -> int64
(** [next t] advances [t] and returns 64 pseudo-random bits. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose future outputs
    are statistically independent of [t]'s. *)
