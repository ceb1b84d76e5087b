(** A single lint diagnostic.

    Findings carry both an exact source span (for the human report) and a
    line-independent {!key} (for the committed baseline): grandfathering a
    finding must survive unrelated edits that shift line numbers. *)

type t = {
  rule : string;  (** rule name, one of {!rules} *)
  file : string;  (** root-relative path, ['/']-separated *)
  line : int;
  col : int;
  context : string;  (** enclosing top-level binding path, or ["-"] *)
  token : string;  (** the offending token, e.g. ["Hashtbl.fold"] *)
  message : string;
  mutable baselined : bool;  (** set by {!Baseline.apply} *)
}

val v :
  rule:string ->
  file:string ->
  line:int ->
  col:int ->
  context:string ->
  token:string ->
  string ->
  t

val key : t -> string
(** Stable baseline key: [rule file context/token], no line numbers. *)

val order : t -> t -> int
(** Sort by (file, line, col, rule, message) for deterministic reports. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

type family = Isolation | Transmittability | Determinism | Hygiene | Protocol

val family_name : family -> string

val rules : (string * family) list
(** Every rule the pass can emit, per-file ([Scan]) or whole-program (the
    proto tier), with its family. *)

val explain : string -> string option
(** The rule's documentation paragraph, printed by [dcp_lint --explain]. *)
