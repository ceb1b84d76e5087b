(** Clerk workload driver.

    The reservations clerk of §3.5, scripted: a clerk guardian runs
    transaction sessions against a front desk — begin a transaction, issue
    a mix of reserves, deferred cancels and undos with think times between
    them, then finish.  Timeouts are handled the way the paper prescribes:
    the request is retried (reserve and cancel are idempotent), and if the
    transaction process itself has vanished (its node crashed), the clerk
    starts a new transaction (§3.5: "to finish the transaction, the clerk
    starts a new transaction").

    Outcomes and latencies are recorded in the world's metrics registry
    under [clerk.*] keys. *)

open Dcp_wire
module Clock = Dcp_sim.Clock

type config = {
  transactions : int;  (** sessions to run; 0 = until the simulation ends *)
  requests_per_transaction : int;
  think_time : Clock.time;  (** mean of the exponential think-time *)
  flights : int;  (** flight numbers are drawn from [0, flights) *)
  dates : int;  (** dates are drawn from [0, dates) *)
  reserve_fraction : float;  (** remaining requests are deferred cancels *)
  undo_fraction : float;  (** probability of an undo after a request *)
  request_timeout : Clock.time;
  attempts : int;  (** tries per request (1 = no retry) *)
  flight_picker : (Dcp_rng.Rng.t -> int) option;
      (** overrides flight choice entirely — used to give clerks an
          affinity for their own region's flights (Figure 2's locality) *)
}

val default_config : config

val install :
  Dcp_core.Runtime.world -> name:string -> config -> unit
(** Register a clerk guardian definition under [name].  Creation args:
    [\[Portv front_desk\]].  Each instance draws from an independent split
    of the world's workload RNG. *)

val create_clerk :
  Dcp_core.Runtime.world ->
  at:Dcp_core.Runtime.node_id ->
  name:string ->
  front_desk:Port_name.t ->
  unit

(** {1 Reading results} *)

type totals = {
  reserves_ok : int;
  reserves_full : int;
  reserves_waitlisted : int;
  reserves_pre_reserved : int;
  cancels_deferred : int;
  undos : int;
  request_failures : int;  (** failure(...) or timeout after all attempts *)
  transactions_completed : int;
  transactions_abandoned : int;
}

val totals : Dcp_core.Runtime.world -> totals
(** Aggregate the [clerk.*] counters of a run. *)
