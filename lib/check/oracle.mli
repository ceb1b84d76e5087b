(** Model-based oracles: invariants checked against the world at a
    quiescent point.

    An oracle inspects the (live, recovered) stable stores of a finished
    run and compares them with what a sequential reference model predicts.
    Oracles return [Error reason] instead of raising so the sweep and
    shrink machinery can treat failures as data; reasons are deterministic
    strings — the same (seed, profile, horizon, workload) always produces
    the same reason. *)

module Runtime = Dcp_core.Runtime

type t = {
  name : string;
  check : Runtime.world -> (unit, string) result;
}

val check_all : t list -> Runtime.world -> (unit, string) result
(** Every oracle runs.  Each failing one reports its reason prefixed with
    its name, and the failures join in list order as
    ["name: reason; name: reason"]; a single failure reads
    ["name: reason"]. *)

(** {1 Stable-storage oracles} *)

val stable_durability : t
(** Every live guardian store's in-memory table equals replay of its own
    newest restorable checkpoint plus log suffix
    ({!Dcp_stable.Store.durability_check}) — i.e. what a recovery at this
    instant would rebuild.  Catches silent divergence the scenario-level
    invariants might not read. *)

(** {1 Bank oracles} *)

(** One issued transfer, as the workload driver recorded it.  [observed]
    is the client-visible outcome ("ok", "insufficient", "timeout", ...;
    "pending" until the call returns). *)
type bank_transfer = {
  tid : int;
  from_branch : int;
  from_account : string;
  to_branch : int;
  to_account : string;
  amount : int;
  mutable observed : string;
}

val bank_quiescent : t
(** No transfer saga is still logged as in flight. *)

val bank_conservation : expected_total:int -> t
(** Money is conserved: the branches' balances sum to the initial total. *)

val bank_model :
  initial:(int * string * int) list ->
  ledger:bank_transfer list ref ->
  ?model_skips:int ->
  unit ->
  t
(** The sequential reference model.  [initial] seeds the model with
    [(branch index, account, opening balance)]; [ledger] is the driver's
    issue-order record of transfers (stored newest first).  The oracle
    reconstructs each transfer's ground-truth commit decision from the
    branches' durable response records ({!Dcp_bank.Branch.recorded_response}
    keyed by {!Dcp_bank.Transfer.step_request_ids}), replays the committed
    ones through the model, and requires (a) every balance to equal the
    model's, (b) every client-acked "ok" to have committed, and (c) every
    withdraw to be matched by a deposit or refund.

    [model_skips] makes the model ignore the first n issued transfers —
    the deliberate mutation used by the harness self-test; leave it at 0
    for an honest oracle. *)

(** {1 Replica oracles} *)

val replica_convergence : t
(** Anti-entropy convergence at quiescence: every live replica's mirrored
    key → stamp table ({!Dcp_primitives.Replica.table_in_store}) is
    identical.  Value agreement follows: last-writer-wins stores a value
    only under the stamp that won it. *)

val replica_sync_budget : budget:int -> t
(** Every sync message respected the byte budget: the
    [replica.sync.over_budget] counter is zero and the largest recorded
    sync payload ([replica.sync.max_bytes]) is within [budget]. *)

(** {1 Register / snapshot oracles} *)

val linearizable : clients:string -> ?max_states:int -> unit -> t
(** The operation histories captured in the stable stores of every
    [clients] guardian (the workload drivers, via {!Linearize.record})
    admit a linearization; fails with the checker's deterministic reason
    otherwise, or when no operation at all was recorded (a run too faulted
    to exercise the register would otherwise vacuously pass). *)

val table_convergence : def_name:string -> t
(** Every live member of an SCD object group ([def_name] is
    {!Dcp_primitives.Register.def_name} or
    {!Dcp_primitives.Snapshot.def_name}) mirrors the same key → ts table
    ({!Dcp_primitives.Register.Table.in_store}) at quiescence — the
    {!replica_convergence} comparison, with the same failure text but
    "member" for "replica". *)

val scd_termination : def_name:string -> t
(** SCD-broadcast's Termination property ({!Dcp_primitives.Scd}), read from
    the members' stores ({!Dcp_primitives.Scd.progress_in_store}): every
    member of the [def_name] group is live and, for every origin [j], has
    durably delivered exactly origin [j]'s last broadcast seq.  Otherwise
    the reason names the first failing (member, origin) pair, members and
    origins in index order, with the delivered and broadcast seqs; a
    crashed or not-yet-joined member fails it too.  Together with
    {!table_convergence} and finished drivers it is the SCD runner's proof
    of quiescence: no message is left to deliver, so no table can change. *)

(** {1 Airline oracles} *)

val airline_seat_ledger : capacity:int -> waitlist_capacity:int -> t
(** Per-date seat accounting on every live flight store: never overbooked,
    no duplicated passenger, waitlist within bounds. *)

val itinerary_atomicity : outcomes:(string * string) list ref -> t
(** All-or-nothing trips: a passenger holds seats on all flights or none;
    every client told "booked" (per [outcomes]: (passenger, outcome))
    really holds its seats; no 2PC hold is left open. *)
