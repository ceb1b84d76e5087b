(** CRC-32 (IEEE 802.3 polynomial, reflected).

    The simulator's stand-in for the paper's "redundant information for error
    detection" (§3.3): every packet carries a CRC over its payload, and a
    corrupted packet is recognised and discarded at the receiver.  The WAL's
    records and the checkpoint frames carry one too.

    A C kernel (crc32_stubs.c).  On an x86-64 CPU with PCLMULQDQ and SSE4.1,
    a slice of 64 bytes or more is folded 16 bytes at a time by carry-less
    multiplication and reduced by Barrett reduction; short slices, the
    last [len mod 16] bytes and hosts without those instructions take a
    slicing-by-8 table loop.  The path is chosen once, when this module is
    initialised.  Both paths give the standard value, as a plain [int] in
    [\[0, 0xffff_ffff\]]; nothing is allocated. *)

val digest_string : string -> int

val digest_sub : bytes -> pos:int -> len:int -> int
(** CRC of a slice. @raise Invalid_argument on out-of-bounds slices. *)

val digest_substring : string -> pos:int -> len:int -> int
(** CRC of a string slice without copying it out first: a fragment's CRC,
    computed at send and checked at receipt over its slice of the message
    body. @raise Invalid_argument on out-of-bounds slices. *)
