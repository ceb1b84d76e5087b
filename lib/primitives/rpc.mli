(** The remote transaction send (Brinch Hansen), built on the no-wait send.

    §3: "The sending process waits for a response from the receiving process
    that the command has been carried out."  The construction costs a full
    round trip per call and adds what the bare primitives deliberately leave
    out: retry after timeout, and optional at-most-once execution through
    server-side duplicate suppression.

    Requests carry a client-chosen request id as their first argument.
    Servers using {!serve} remember the response for each request id and
    re-send it when a retransmitted duplicate arrives, instead of
    re-executing — the mechanism the paper sidesteps by making reserve and
    cancel idempotent (§3.5).  Experiment E4 compares both designs. *)

open Dcp_wire
module Clock = Dcp_sim.Clock

val request_signature :
  string -> Vtype.t list -> replies:Vtype.reply list -> Vtype.signature
(** Signature for a port serving this RPC: the declared args are prefixed
    with the request id ([Tint]), and every declared reply likewise. *)

type response =
  | Reply of string * Value.t list  (** reply command and its args (id stripped) *)
  | Failure_msg of string  (** system failure(...) on the final attempt *)
  | Timeout  (** every attempt timed out *)

val call :
  Dcp_core.Runtime.ctx ->
  to_:Port_name.t ->
  ?timeout:Clock.time ->
  ?attempts:int ->
  ?request_id:int ->
  string ->
  Value.t list ->
  response
(** Blocking remote invocation.  [attempts] (default 1) is the total number
    of tries; [timeout] (default 1 s virtual) applies per try, as a hard
    deadline from the moment the try's request is sent — stale replies to
    other request ids are discarded without extending it.  Responses to
    earlier tries are accepted — any response to this request id settles the
    call.  Generated ids come from the world's mint
    ({!Dcp_core.Runtime.ctx_mint_id}), so they are deterministic per
    (seed, shards).  [request_id] overrides the generated id; pin one only
    for cross-crash idempotency: a caller that re-issues the call after its
    own recovery derives a stable id from logged state, so the server's
    response record answers the retry. *)

(** {1 Server side} *)

type dedup
(** Response cache for at-most-once execution, bounded LRU-ish (oldest
    entries evicted beyond a capacity). *)

val dedup : ?capacity:int -> unit -> dedup

val serve :
  Dcp_core.Runtime.ctx ->
  dedup:dedup ->
  Dcp_core.Message.t ->
  f:(string -> Value.t list -> string * Value.t list) ->
  unit
(** Handle one RPC request message: strip the request id, run [f command
    args] to get [(reply_command, reply_args)] — or re-use the cached
    response for a duplicate id — and send it to the request's reply port.
    Messages without an id or reply port are ignored (they are not RPCs). *)

val serve_always :
  Dcp_core.Runtime.ctx ->
  Dcp_core.Message.t ->
  f:(string -> Value.t list -> string * Value.t list) ->
  unit
(** Like {!serve} but with no duplicate suppression: every delivered copy
    executes [f].  Correct only for idempotent operations — the paper's
    choice for reserve/cancel. *)
