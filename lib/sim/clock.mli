(** Virtual time.

    Simulated time is an integer number of nanoseconds since the start of the
    run, so all time arithmetic is exact and runs are reproducible.  Helper
    constructors convert the human-scale units used in experiment
    configurations. *)

type time = int
(** Nanoseconds since simulation start. *)

val zero : time
val us : int -> time
val ms : int -> time
val s : int -> time

val of_float_s : float -> time
(** Seconds (float) to virtual time, rounded to the nearest nanosecond. *)

val to_float_s : time -> float
val to_float_ms : time -> float
val to_float_us : time -> float

val add : time -> time -> time
val diff : time -> time -> time
val compare : time -> time -> int

val pp : Format.formatter -> time -> unit
(** Human-readable rendering, e.g. ["1.500ms"]. *)
