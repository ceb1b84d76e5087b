(** Snapshot objects over {!Scd} — the second classic construction of the
    SCD-broadcast paper (specification per Aspnes's notes, PAPERS.md): a set
    of single-writer-ish components updated individually, read atomically
    as a whole.

    [update k v] is the register write; [snapshot ()] broadcasts a sync
    marker and, once it is delivered, replies with the member's {e entire}
    table — an atomic point-in-time view, totally ordered against every
    update by the delivery timestamp order.

    This module is only a name, a port type and client helpers: the
    members are {!Register}'s one SCD-object member, created through
    {!Register.create_members}, so the table, its durable ["k:"] mirror
    (and with it the convergence oracle), the delivery barrier and the
    durable at-most-once request discipline are the register's own.  The
    port type is what makes it a different object: a snapshot group
    admits [update]/[snapshot] and no per-key [read], which is what lets
    the linearizability checker treat register histories per key while
    snapshot histories check whole-state.  Clients use single-attempt
    calls when a history is being recorded.

    Inspection: {!scan} is called only by tests, which read a snapshot
    through the protocol with it. *)

open Dcp_wire
module Runtime = Dcp_core.Runtime
module Clock = Dcp_sim.Clock

val def_name : string
(** ["scd_snapshot"] *)

val create_group :
  Runtime.world ->
  nodes:Runtime.node_id list ->
  introduce_at:Runtime.node_id ->
  unit ->
  Port_name.t list
(** One member per node, introduced by a bootstrap guardian at
    [introduce_at]; returns the request ports in [nodes] order. *)

(** {1 Client helpers} *)

val update :
  Runtime.ctx -> snapshot:Port_name.t -> key:string -> value:Value.t ->
  timeout:Clock.time -> bool

val scan :
  Runtime.ctx -> snapshot:Port_name.t -> timeout:Clock.time ->
  (string * Value.t) list option
(** The atomic whole-table view, key-sorted; [None] on timeout/failure. *)
