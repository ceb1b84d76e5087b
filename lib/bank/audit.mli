(** Auditing helpers: whole-bank invariants over the branch guardians.

    The auditor is a client like any other — it can only learn balances by
    sending messages, which is the point: §2.1's guardians make the
    distributed database "a group of guardians, but each guardian in that
    group guards a discernable resource". *)

open Dcp_wire

(** Both helpers make up to three attempts of 500 ms each per branch. *)

val total_balance :
  Dcp_core.Runtime.ctx -> branches:Port_name.t list -> (int, string) result
(** Sum of every branch's account balances, by querying each branch's
    [total()].  [Error] names the first unreachable branch. *)

val balance_of :
  Dcp_core.Runtime.ctx -> branch:Port_name.t -> account:string -> (int, string) result
