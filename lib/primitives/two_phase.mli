(** Two-phase commit over the no-wait send.

    §3 motivates the choice of primitive by the protocols it must be able
    to express — "protocols have been described ... for recoverable atomic
    transactions".  This module is such a protocol, built from nothing but
    no-wait sends, reply ports and timeouts: a coordinator drives an
    atomic commitment across a set of participant guardians.

    Protocol (all request ports follow the RPC convention):

    {v
    coordinator -> participant:  prepare(txid, payload)
    participant -> coordinator:  vote_commit(txid) | vote_abort(txid, why)
    coordinator -> participant:  commit(txid) | abort(txid)
    participant -> coordinator:  acked(txid)
    v}

    The coordinator logs its commit/abort decision to stable storage before
    announcing it, and its recovery process completes the announcement
    after a crash; participants hold their prepared state (logged) until
    they hear the decision, asking again if it is slow to arrive.  That is
    the standard blocking 2PC of the literature the paper cites —
    crash-safe, not partition-nonblocking.

    {!Participant} is a helper functor-free kit for writing participant
    guardians; {!Coordinator} runs one transaction.  The airline uses this
    to make multi-leg bookings atomic (see {!Dcp_airline.Itinerary}). *)

open Dcp_wire
module Clock = Dcp_sim.Clock

(** {1 Participant side} *)

(** What a participant resource must provide. *)
type participant_hooks = {
  prepare : txid:int -> Value.t -> (unit, string) result;
      (** Validate and tentatively apply; hold locks / reservations.  Must
          log enough (its own store) to survive a crash holding the
          prepared state.  [Error reason] votes abort. *)
  commit : txid:int -> unit;  (** Make the tentative effect permanent. *)
  abort : txid:int -> unit;  (** Discard the tentative effect. *)
}

val participant_signatures : Vtype.signature list
(** Signatures to include in a participant's port type: [prepare], [commit],
    [abort] (all RPC-style). *)

val handle_participant :
  Dcp_core.Runtime.ctx -> hooks:participant_hooks -> Dcp_core.Message.t -> bool
(** Feed a received message through the participant protocol.  Returns
    [true] when the message was a 2PC message (and was handled; replies are
    sent), [false] when the caller should handle it itself.  Duplicate
    prepares/commits/aborts for the same txid are answered idempotently —
    the participant records per-txid outcomes in its stable store. *)

(** {1 Coordinator side} *)

type decision = Committed | Aborted of string

val coordinate :
  Dcp_core.Runtime.ctx ->
  txid:int ->
  participants:(Port_name.t * Value.t) list ->
  decision
(** Run one two-phase commit among [participants], each receiving its own
    payload in phase 1; a participant that has not voted within 1 s aborts
    the transaction.  Blocks the calling process until the outcome is
    decided *and* the decision has been logged; each of up to three
    announcement rounds awaits acks for 500 ms, but the decision stands
    regardless.  The
    decision is recorded in this guardian's stable store under
    ["2pc:<txid>"] before it is announced, so a recovery process can finish
    announcing after a crash (see {!redeliver_decisions}). *)

val redeliver_decisions : Dcp_core.Runtime.ctx -> int
(** Coordinator recovery: for every logged, still-unacknowledged decision,
    re-announce it to the transaction's participants (their ports are part
    of the logged decision record) and await acks.  Returns how many
    transactions were re-driven.  Call from the coordinator guardian's
    [recover] process. *)

val pending_decisions : Dcp_stable.Store.t -> int
(** Unacknowledged decision records in a coordinator's store (observability
    for tests; 0 once every participant has acknowledged). *)
