(** Whole-program protocol analysis, pass 5: unused exports.

    Matches every [val] in the interfaces under [lib/] against the value
    paths of every other unit, with [module A = B.C] aliases resolved, and
    reports the vals that no other unit names ([proto-unused-export]).
    Opens, includes, functor arguments and first-class modules count as
    uses, so the rule keeps the tier's zero-false-positive policy. *)

type counts = {
  declared : int;  (** vals in the interfaces *)
  unused : int;  (** named by no other unit *)
  test_only : int;  (** named by units under [test/] only *)
}

val check :
  interfaces:(string * string) list ->
  units:Proto_extract.unit_info list ->
  Finding.t list * counts
(** [interfaces] are [(path, source)] pairs of [.mli] files; [units] are
    every implementation read for uses, the declaring module's own [.ml]
    excepted. *)
