(** The concrete scenario library.

    Each scenario wires a subsystem workload to the fault machinery and
    its model oracles:

    - [bank]: cross-branch transfer sagas; money conservation, saga
      quiescence, and the sequential reference model over the branches'
      durable response records.
    - [airline]: the Figure-2 cluster under clerk load; per-date seat
      ledger invariants.
    - [itinerary]: two-leg 2PC bookings; all-or-nothing atomicity, honest
      acks, no dangling holds.
    - [replica]: 100 anti-entropy gossip replicas under write load and
      churn; all live key → stamp tables identical at quiescence, every
      sync message under the byte budget, convergence time measured.
    - [replica_1k]: the same protocol at 1000 replicas — a scale probe
      runnable by name but kept out of the default sweep.
    - [register]: SCD-broadcast atomic registers (5 members) under client
      load and churn; the recorded per-client histories must linearize,
      every member's durable table must converge, and every broadcast must
      be delivered everywhere (SCD's Termination).  The run stops at the
      first probe that proves quiescence rather than after a fixed settle.
    - [snapshot]: the SCD snapshot object (4 members); same oracles, with
      whole-state snapshot views in the histories.
    - [bank_mutated]: [bank] with a reference model that deliberately
      ignores the first transfer — the harness self-test.  It MUST fail on
      most seeds; a sweep that reports it green means the checker itself
      is broken.
    - [register_mutated]: [register] without delivery barriers — writes
      acked at broadcast time, reads served from the stale local copy —
      the linearizability oracle's self-test; must fail under profiles
      with real network delay.

    Inspection: {!airline}, {!replica}, {!bank_mutated},
    {!register_mutated} and {!register_at_stop} are run only by tests; the
    mutated ones are the checker's self-tests. *)

val bank : Scenario.t
val airline : Scenario.t
val itinerary : Scenario.t
val replica : Scenario.t
val register : Scenario.t
val snapshot : Scenario.t
val bank_mutated : Scenario.t
val register_mutated : Scenario.t

val register_at_stop : Scenario.params -> Dcp_core.Runtime.world
(** The [register] scenario's world where its runner stops and judges:
    the first 250 ms probe past the horizon at which every driver has
    finished, the crash plan's last event ({!Chaos.faults_end}) has fired,
    and {!Oracle.scd_termination} and {!Oracle.table_convergence} hold —
    or the horizon plus 60 s when none does.  For tests of that stop
    rule. *)

val all : Scenario.t list
(** The honest default-sweep scenarios (excludes [bank_mutated] and
    [replica_1k]). *)

val every : Scenario.t list
(** [all] plus the off-by-default scenarios ([bank_mutated],
    [replica_1k]) — what [list] shows and [find] searches. *)

val find : string -> Scenario.t option
(** By name, including [bank_mutated] and [replica_1k]. *)

val names : string list
(** Every scenario name, including [bank_mutated] and [replica_1k]. *)
