(** The transfer coordinator guardian: a crash-recoverable two-step saga.

    A cross-branch transfer needs a withdraw at one guardian and a deposit
    at another.  The coordinator logs the transfer's stage in its stable
    store *before* each step, so its recovery process can re-drive
    transfers that were in flight when the node crashed.  Re-driving is
    safe because each step uses a request id derived from the logged
    transfer id, and branches record responses by request id — the retried
    step is answered from the branch's record instead of being re-applied.

    Together with {!Branch}, this demonstrates the §2.2 claim that
    "permanence of effect is crucial for using information about the result
    obtained by a message exchange as a basis for future actions": the
    coordinator's future actions (deposit, refund, reply) are driven
    entirely by logged results.

    Port (RPC convention):
    {v
    transfer(from_branch, from_account, to_branch, to_account, amount)
      replies (ok, insufficient, no_account, failed(string))
    v}
    Branches are named by their index into the directory passed at
    creation. *)

open Dcp_wire

val create :
  Dcp_core.Runtime.world ->
  at:Dcp_core.Runtime.node_id ->
  branches:Port_name.t list ->
  unit ->
  Port_name.t

val incomplete_transfers : Dcp_core.Runtime.world -> int
(** Transfers currently logged as in flight across all coordinators
    (0 once everything has settled) — used by conservation tests. *)

val step_request_ids : tid:int -> int * int * int
(** The (withdraw, deposit, refund) request ids the coordinator derives
    from transfer [tid].  These key the branches' stable response records,
    so an oracle can reconstruct the ground-truth commit decision of every
    settled transfer from the branch stores alone. *)
