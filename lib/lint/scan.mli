(** Per-file syntactic rules over the compiler-libs parsetree.

    The pass is untyped — it runs on the bare [Parse.implementation] of
    {!Proto_extract.load} — so each rule is a syntactic approximation; the committed baseline absorbs benign
    matches (e.g. a [Hashtbl.fold] computing a commutative sum).  Rules:

    - [layer-dag] / [guardian-isolation]: a [Dcp_*] module reference whose
      layer is not strictly below the referencing library's layer.
    - [wall-clock]: [Unix.gettimeofday], [Sys.time], [Random.self_init], ...
    - [hashtbl-order]: [Hashtbl.fold]/[iter] (also [Store.fold],
      [Pair_tbl.*]) not syntactically wrapped in a sort.
    - [mutable-payload]: an array literal, [ref], or [Bytes] constructor in
      a [send]/[reply]/[Rpc.call] argument.
    - [poly-compare]: bare [compare], [Stdlib.compare], [Hashtbl.hash], or a
      comparison operator applied to [Port.name] results.
    - [obj-magic]: any [Obj.*] reference.
    - [parse-error]: the file did not parse. *)

val file : Proto_extract.unit_info -> Finding.t list
(** Lint one parsed compilation unit.  Its root-relative path decides the
    layer context: files under [lib/<dir>/] get that library's layer
    restrictions, anything else (bin, examples) may reference every layer.
    A unit that did not parse yields one [parse-error].  Returns findings
    sorted by {!Finding.order}. *)
