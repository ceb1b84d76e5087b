(** Source discovery and file-level hygiene. *)

type src = {
  path : string;  (** root-relative, ['/']-separated *)
  lib_dir : string option;  (** [Some dir] for [lib/<dir>/] modules *)
}

val ml_files : root:string -> dirs:string list -> src list
(** Every [.ml] under the given root-relative directories, sorted so the
    scan (and the report) is deterministic.  Under ["lib"] each
    subdirectory is a library; other directories are flat. *)

val mli_files : root:string -> src list
(** Every library interface, [lib/<dir>/*.mli], sorted. *)

val missing_mli : root:string -> src list -> Finding.t list
(** [mli-missing] findings for library modules without an interface. *)

val read_file : string -> string
