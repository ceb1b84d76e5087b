(** The committed allowlist of grandfathered findings.

    One {!Finding.key} per line, [#] comments allowed.  Keys omit line
    numbers so entries survive unrelated edits; one entry covers every
    occurrence with the same (rule, file, context, token).

    Inspection: {!empty} is called only by tests, which run the analyzer
    without a baseline through it. *)

type t

val empty : unit -> t
val load : path:string -> t
(** A missing file loads as the empty baseline. *)

val apply : t -> Finding.t list -> unit
(** Mark matching findings as baselined (in place). *)

val stale : t -> string list
(** Entries that matched no current finding, sorted: the grandfathered
    finding was fixed, so the entry should be pruned. *)

val save : path:string -> Finding.t list -> unit
(** Write the keys of [findings] (sorted, deduplicated) after the existing
    file's comment lines, or after a default header when the file is new —
    the [--update-baseline] path. *)
