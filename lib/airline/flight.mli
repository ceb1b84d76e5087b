(** The flight guardian: guards the data of a single flight (§2.3).

    "Internally, the airline guardian might make use of a guardian for each
    flight.  The top level guardian simply dispatches a request to the
    appropriate flight guardian, which does the actual work and logs
    results."

    One guardian instance holds the per-date seat data of one flight and
    services [reserve]/[cancel]/[list_passengers].  Its internal structure
    is selectable among the paper's three organizations (Figure 1):

    - {!Types.One_at_a_time}: one process, strictly sequential;
    - {!Types.Serializer}: a synchronizing process that forks a worker per
      request, at most one worker per date at a time;
    - {!Types.Monitor}: fork-per-request, workers serialize per date with a
      keyed monitor ([start_request(date)]/[end_request(date)]).

    Reserve and cancel are atomic and logged to the guardian's stable store
    before the reply is sent, so a completed operation survives a node
    crash (§2.2); the recovery process rebuilds the seat tables from the
    log.  Both are idempotent by design (§3.5) under {!Types.Idempotent_set}
    accounting; {!Types.Naive_counter} is the deliberately unsafe variant
    used to measure what idempotency buys. *)

open Dcp_wire

val def_name : string

(** Read-only parse of a flight guardian's stable store: who holds a seat
    or waitlist slot on each date, and how many transactional holds are
    still open.  This is the surface the {!Dcp_check} seat-ledger and
    2PC-atomicity oracles audit. *)
type ledger = {
  reserved : (int * string) list;  (** (date, passenger) with a seat *)
  waitlisted : (int * string) list;
  open_holds : int;  (** 2PC holds not yet committed or aborted *)
}

val ledger_of_store : Dcp_stable.Store.t -> ledger

val def : Dcp_core.Runtime.def
(** Register once per world.  Creation arguments (as message values):
    [\[Int flight_no; Int capacity; Int waitlist_capacity; Str organization;
    Int service_time_ns; Str accounting\]]. *)

val create_with_admin :
  Dcp_core.Runtime.world ->
  at:Dcp_core.Runtime.node_id ->
  flight:Types.flight_no ->
  capacity:int ->
  ?waitlist_capacity:int ->
  ?organization:Types.organization ->
  ?service_time:Dcp_sim.Clock.time ->
  ?accounting:Types.accounting ->
  ?partner_floor:int ->
  unit ->
  Port_name.t * Port_name.t
(** Like {!create} but also returns the privately held admin port
    (stats / list / archive).  Whoever is given this name holds the
    administrative capability.  [partner_floor] (default none) is §2.3's
    other-airline policy: passengers named ["partner:..."] may not take the
    last [partner_floor] seats of a date, nor its waitlist. *)

val create :
  Dcp_core.Runtime.world ->
  at:Dcp_core.Runtime.node_id ->
  flight:Types.flight_no ->
  capacity:int ->
  ?waitlist_capacity:int ->
  ?organization:Types.organization ->
  ?service_time:Dcp_sim.Clock.time ->
  ?accounting:Types.accounting ->
  unit ->
  Port_name.t
(** Bootstrap helper: create the guardian and return its request port.
    Defaults: waitlist 10, monitor organization, 1 ms service time,
    idempotent accounting. *)
