(** Decimal integers written in place, for the store's length-prefixed
    records and checkpoint frames: each frame is sized first and written
    into one buffer of exactly that size. *)

val width : int -> int
(** [String.length (string_of_int n)]. *)

val put : Bytes.t -> int -> int -> unit
(** [put b pos n] writes [string_of_int n] at [pos]. *)
