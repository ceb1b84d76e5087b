(** The synchronization send (Hoare/CSP), built on the no-wait send.

    §3: "The sending process waits until the message has been received by
    the target process" — and the paper's argument: the no-wait send "can be
    used to implement the others, but not vice versa (if extra message
    passing is to be avoided)".  This module is that construction: the
    sender attaches an acknowledgement port; a cooperating receiver
    acknowledges the moment it takes the message, *before* acting on it.
    Every exchange therefore costs two messages where a bare no-wait send
    costs one — the overhead experiment E5 measures. *)

open Dcp_wire
module Clock = Dcp_sim.Clock

type outcome =
  | Received  (** the target process took the message *)
  | Failed of string  (** the system reported the message undeliverable *)
  | Timed_out
      (** no acknowledgement within the timeout — the sender knows nothing,
          the usual post-timeout uncertainty of §3.5 *)

val send :
  Dcp_core.Runtime.ctx ->
  to_:Port_name.t ->
  ?timeout:Clock.time ->
  string ->
  Value.t list ->
  outcome
(** Blocking send: returns once the receiver acknowledged (or on
    failure/timeout).  Default timeout 10 s of virtual time. *)

val acknowledge : Dcp_core.Runtime.ctx -> Dcp_core.Message.t -> unit
(** Receiver side: acknowledge a message taken from a port.  A no-op when
    the message carries no reply port (the sender used plain no-wait). *)

val receive_synchronized :
  Dcp_core.Runtime.ctx ->
  ?timeout:Clock.time ->
  Dcp_core.Port.t list ->
  [ `Msg of Dcp_core.Port.t * Dcp_core.Message.t | `Timeout ]
(** [receive] that acknowledges each message as it is taken. *)
