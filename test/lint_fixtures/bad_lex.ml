(* Lint fixture: a string that never ends; the linter must say so. *)
let unterminated = "abc
