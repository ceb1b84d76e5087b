(** The one external representation of every committed artifact
    ([BENCH_micro.json], [CHECK_sweep.json], [LINT_report.json]): a JSON
    value, its renderer and its parser.

    [parse (render v) = v] for every [v] whose numbers are finite.

    Inspection: {!render} is called directly only by tests, which check
    the rendering {!to_file} writes. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val render : t -> string
(** Two-space indented, newline-terminated.  A container whose members are
    all scalars goes on one line; any other container puts each member on
    its own line.  A number renders in the shortest form that parses back
    to the same float; a non-finite one renders as [null]. *)

val to_file : string -> t -> unit
(** [to_file path v] writes [render v] to [path]. *)

exception Parse_error of string
(** The message ends with ["at byte N"], the offset of the offending byte. *)

val parse : string -> t
(** Parses one JSON value surrounded by optional whitespace.  A [\u]
    escape needs exactly four hex digits; one above U+007F decodes as
    ['?'].  Raises {!Parse_error} on malformed input. *)

val member : string -> t -> t option
(** [member name (Obj fields)] is the first field called [name]; [None]
    for a missing field or a non-object. *)
