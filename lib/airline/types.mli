(** Vocabulary of the Airline Reservation System (§2.3, §3.5).

    Flights are numbered, dates are day numbers, passengers are named by
    strings.  The reply sets are the paper's: reserve answers
    [ok | full | wait_list | pre_reserved | no_such_flight]; cancel answers
    [canceled | not_reserved | no_such_flight].

    All request ports speak the RPC convention (request id first), because
    clerks retry after timeouts and need to pair responses with requests. *)

open Dcp_wire

type flight_no = int
type date = int
type passenger = string

type reserve_reply = Ok_reserved | Full | Wait_listed | Pre_reserved | No_such_flight
type cancel_reply = Canceled | Not_reserved | Cancel_no_such_flight

val reserve_reply_command : reserve_reply -> string
val cancel_reply_command : cancel_reply -> string

(** {1 Port types} *)

val flight_port_type : Vtype.port_type
(** Requests to a flight guardian: [reserve(id, passenger, date)],
    [cancel(id, passenger, date)], [list_passengers(id, date)]. *)

val flight_admin_port_type : Vtype.port_type
(** The flight guardian's second, privately held port: administrative
    functions (§2.3 — "deleting or archiving information about flights that
    have occurred, collecting statistics about flight usage").  Access
    control is capability-style: the admin port's name is simply not
    published to reservation clients. *)

val regional_port_type : Vtype.port_type
(** Requests to a regional manager (Figure 4): the flight guardian's
    vocabulary with a leading [flight_no] argument. *)

val front_desk_port_type : Vtype.port_type
(** [begin_transaction(id, passenger)] replies [transaction(id, port)]. *)

val transaction_port_type : Vtype.port_type
(** The per-transaction conversation of Figure 5: [reserve(id, flight,
    date)], [cancel(id, flight, date)], [undo(id)], [finish(id)]. *)

(** {1 Internal organization of a flight guardian (Figure 1)} *)

type organization =
  | One_at_a_time  (** Fig. 1a: a single process handles requests one at a time *)
  | Serializer  (** Fig. 1b: a synchronizing process hands requests to workers *)
  | Monitor  (** Fig. 1c: fork per request; workers synchronize via a monitor *)

val organization_of_string : string -> organization option
val organization_to_string : organization -> string

(** Seat-accounting discipline — the idempotency ablation of E4. *)
type accounting =
  | Idempotent_set  (** §3.5's design: a set of passengers; retries are harmless *)
  | Naive_counter  (** a bare seat counter: every delivered reserve decrements *)

val accounting_of_string : string -> accounting option
val accounting_to_string : accounting -> string
