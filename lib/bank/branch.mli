(** A bank branch guardian.

    The banking system is the other application the paper's introduction
    motivates ("banking systems, airline reservation systems, office
    automation").  A branch guards the accounts of one bank branch:
    balances live in the guardian's stable store, every mutation is logged
    before it is acknowledged (permanence of effect, §2.2), and the
    guardian recovers after a node crash.

    Unlike the airline's reserve/cancel, [deposit] and [withdraw] are *not*
    idempotent, so the branch provides exactly-once execution instead: the
    response to each request id is recorded in the stable store, and a
    retransmitted request is answered from that record rather than
    re-applied.  Because the record is stable, this holds across branch
    crashes too — the complementary robustness design to §3.5's
    idempotency, and the E4 ablation's third arm.

    Port (RPC convention — request id first):
    {v
    open_account(account)            replies (ok(balance))
    deposit(account, amount)         replies (ok(balance), no_account)
    withdraw(account, amount)        replies (ok(balance), insufficient, no_account)
    balance(account)                 replies (balance(amount), no_account)
    total()                          replies (total(amount))
    v} *)

open Dcp_wire

val def_name : string

val create :
  Dcp_core.Runtime.world ->
  at:Dcp_core.Runtime.node_id ->
  accounts:(string * int) list ->
  unit ->
  Port_name.t
(** Create a branch seeded with [(account, opening balance)] pairs. *)

(** {1 Oracle accessors}

    Read-only views over a (recovered) branch store, so audit and
    model-checking code never parses the store's key format itself. *)

val balance_in_store : Dcp_stable.Store.t -> account:string -> int option

val total_in_store : Dcp_stable.Store.t -> int
(** Sum of all account balances held in the store. *)

val recorded_response : Dcp_stable.Store.t -> request_id:int -> string option
(** The reply command the branch durably recorded for a mutating request
    id ([None] if the request never executed) — the ground truth a model
    oracle replays to learn which transfer steps actually committed. *)
