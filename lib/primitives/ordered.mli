(** Ordered, reliable delivery built over the no-wait send.

    §3.4: "No guarantee about arrival order is made, i.e., even two
    messages x and y sent by a single process to the same port are not
    guaranteed to arrive in the same order they were sent.  If the order
    is important, processes must coordinate to achieve it."

    This module is that coordination: a one-directional channel carrying
    arbitrary payload values with sequence numbers, a sliding send window,
    periodic retransmission of unacknowledged data, cumulative
    acknowledgements, receiver-side reordering and duplicate suppression —
    i.e. the transport layer a 1979 application would hand-roll from the
    paper's primitives.

    Wire protocol (over the receiver's port):
    {v
    sender   -> receiver:  odata(channel, seq, payload)   [replyto ack port]
    receiver -> sender :   oack(channel, next_expected)
    v} *)

open Dcp_wire
module Clock = Dcp_sim.Clock

(** {1 Receiver} *)

type receiver

val receiver : Dcp_core.Runtime.ctx -> ?capacity:int -> unit -> receiver
(** Mint a channel endpoint inside this guardian (its own port). *)

val receiver_port : receiver -> Port_name.t
(** Publish this to the sender. *)

val recv : receiver -> ?timeout:Clock.time -> unit -> Value.t option
(** Next in-order payload; blocks until it is deliverable or the timeout
    expires ([None]).  Every payload is delivered exactly once, in send
    order, whatever the link did. *)

(** {1 Sender} *)

type sender

val connect :
  Dcp_core.Runtime.ctx ->
  to_:Port_name.t ->
  ?window:int ->
  ?retransmit_every:Clock.time ->
  unit ->
  sender
(** Open a channel to a receiver port.  [window] (default 16) bounds
    unacknowledged messages in flight; [retransmit_every] (default 100 ms)
    is the resend period for unacked data. *)

val send : sender -> Value.t -> unit
(** Queue one payload.  Blocks (processing acknowledgements) while the
    window is full. *)

val flush : sender -> timeout:Clock.time -> bool
(** Block until everything sent has been acknowledged ([true]) or the
    timeout expires ([false]). *)

val close : sender -> unit
(** Stop the retransmission process.  Unacked data is abandoned. *)

val messages_sent : sender -> int
(** Total [odata] transmissions including retransmissions — the price of
    ordering, measured by experiment E10. *)
