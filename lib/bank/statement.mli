(** Account statements, streamed over the ordered channel.

    A statement is a long sequence of entries whose order matters (a
    running balance) — precisely the case §3.4 leaves to the application:
    "if the order is important, processes must coordinate to achieve it".
    The branch streams entries through {!Dcp_primitives.Ordered}, so the
    client sees them exactly once, in order, whatever the network does.

    The branch-side extension lives here rather than in {!Branch} to keep
    the core branch protocol small: a statement guardian is created next
    to a branch and reads its (public) total/balance interface, plus the
    transaction journal it is given at creation.

    Protocol: [request_statement(account, channel_port) replies
    (streaming(entries))] — the entries then arrive on the caller's
    ordered-channel receiver as tuples [(seq, description, amount)].

    Paper API (§3.4): only tests reach this module; it stays as the
    application-level ordering the paper leaves to processes. *)

open Dcp_wire

val create :
  Dcp_core.Runtime.world ->
  at:Dcp_core.Runtime.node_id ->
  journal:(string * string * int) list ->
  unit ->
  Port_name.t
(** [journal] is the ledger to serve: [(account, description, amount)]
    rows in chronological order. *)

(** {1 Client helper} *)

val fetch_statement :
  Dcp_core.Runtime.ctx ->
  statements:Port_name.t ->
  account:string ->
  timeout:Dcp_sim.Clock.time ->
  (string * int) list option
(** Request and collect the full statement for [account]: opens an ordered
    receiver, asks the guardian to stream into it, and gathers the rows.
    [None] on timeout or refusal. *)
