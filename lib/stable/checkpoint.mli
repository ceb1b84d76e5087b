(** CRC-framed checkpoint records for {!Store} log compaction.

    A checkpoint freezes a store's whole key-value table as one durable
    blob tagged with the log position it covers: replaying the blob and the
    log suffix from [upto] onward reconstructs exactly the state that
    replaying the full log would.  The frame is a CRC32 over the entire
    body, so a checkpoint that rotted at rest is detected as a unit and
    {!restore} answers [None] — recovery then falls back to the previous
    generation (the store retains two) rather than trusting damaged state
    or raising.

    Inspection: {!upto} is called only by tests, which check a
    checkpoint's coverage through it. *)

val make : upto:int -> (string * string) list -> string
(** [make ~upto pairs] frames [pairs] (any bytes allowed in keys and
    values) covering log records with LSN < [upto]. *)

val restore : string -> (int * (string * string) list) option
(** Decode a frame.  [None] on any damage: CRC mismatch, truncation, or
    malformed framing.  Never raises. *)

val upto : string -> int option
(** The covered LSN of an intact frame, without decoding the pairs. *)
