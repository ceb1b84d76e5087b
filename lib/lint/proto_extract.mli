(** Whole-program protocol analysis, pass 1: per-unit extraction.

    Parses each compilation unit once and extracts the raw protocol facts —
    function definitions, declared message signatures, and handler dispatch
    sites — consumed by the interprocedural passes ([Proto_summary],
    [Proto_reply], [Proto_flow]).  The per-file [Scan] rules lint the same
    parse.  Untyped and syntactic, like [Scan]. *)

module SSet : Set.S with type elt = string
module SMap : Map.S with type key = string

(** The abstract string-set lattice command names are evaluated in. *)
type names = Known of SSet.t | Dynamic

val known : string list -> names
val nunion : names -> names -> names

(** {1 Syntax helpers shared by the later passes} *)

val lid_last : Longident.t -> string
val callee_pair : Parsetree.expression -> (string * string) option
val pair_string : string * string -> string
val line_of : Location.t -> int
val positional : int -> (Asttypes.arg_label * Parsetree.expression) list -> Parsetree.expression option
val labelled : string -> (Asttypes.arg_label * Parsetree.expression) list -> Parsetree.expression option
val strip : Parsetree.pattern -> Parsetree.pattern
val alternatives : Parsetree.pattern -> Parsetree.pattern list
val pat_constants : Parsetree.pattern -> string list
val binding_name : Parsetree.pattern -> string option
val sub_at : Parsetree.pattern -> idx:int -> ncomps:int -> Parsetree.pattern option
val is_reply_source : vars:SSet.t -> Parsetree.expression -> bool

val match_positions :
  ?reply_vars:SSet.t ->
  Parsetree.expression ->
  Parsetree.expression list * int option * int option
(** Scrutinee components plus the command and reply-port positions. *)

(** {1 Function definitions} *)

type param = {
  p_label : string;  (** "" when positional *)
  p_name : string;
  p_pos : int;  (** index among positional params; [-1] for labelled *)
  p_default : Parsetree.expression option;
}

type fn = {
  fn_name : string;
  fn_key : string;  (** ["Module.name"], the global summary key *)
  fn_context : string;  (** enclosing top-level binding *)
  fn_params : param list;
  fn_body : Parsetree.expression;
  fn_line : int;
}

val decompose_fun : Parsetree.expression -> param list * Parsetree.expression

(** {1 Handler / declaration sites} *)

type handle_kind = Dispatch | Declared | Reply_declared | Reply_match

val kind_name : handle_kind -> string

type handle = {
  h_name : string;
  h_kind : handle_kind;
  h_line : int;
  h_context : string;
  h_obligated : bool;  (** declared with a non-empty reply set *)
}

(** {1 The per-unit record} *)

type unit_info = {
  u_path : string;
  u_module : string;  (** capitalized basename, e.g. ["Branch"] *)
  u_lib : string option;  (** ["bank"] for [lib/bank/branch.ml] *)
  u_id : string;  (** graph node id, e.g. ["bank/branch"] *)
  u_structure : (Parsetree.structure, exn) result;
      (** [Error] when the unit fails to parse; [Scan] reports it *)
  u_fns : fn list;
  u_handles : handle list;
}

val module_of_path : string -> string
val load : path:string -> source:string -> unit_info
