(** Multi-writer multi-reader atomic registers over {!Scd}, and the one
    SCD-object member that also serves {!Snapshot}.

    The SCD-broadcast construction of an atomic read/write memory (Imbs,
    Mostéfaoui, Perrin, Raynal; specification per Aspnes's notes, PAPERS.md):
    a group of guardians each holds a full copy of a key → value table;

    - [write k v] SCD-broadcasts the write and replies only once the member
      has {e delivered} it (applied it at its place in the group-wide
      timestamp order);
    - [read k] SCD-broadcasts a sync marker and replies with the local value
      once that marker is delivered — the delivery barrier is what rules out
      stale reads and new/old inversions.

    The snapshot object is the same construction with a different port
    type: [update k v] is [write] under another name and [snapshot ()]
    answers with the whole table instead of one key.  One member serves all
    four commands; an object's port type decides which of them reach it
    (the runtime checks the port type on delivery), and {!create_members}
    builds a group of either kind.

    Values win by delivery timestamp (last-writer-wins over {!Scd.ts}, a
    total order), so every member's table converges to the same state
    regardless of how deliveries were grouped into sets.  The table is
    durable: the frontier never re-delivers old sets, so a recovered member
    must come back holding everything it had applied.

    Request execution is at-most-once {e across member crashes}: each
    request id's outcome (or an in-progress marker) is recorded durably
    before any effect, and duplicates — network-duplicated or client-retried
    — either get the recorded reply resent or are dropped while the original
    is still in flight.  Clients that want clean linearizability histories
    still call with [~attempts:1]: a timed-out call has unknown effect and
    must be recorded as pending, never reissued under a fresh id.

    The [stale_reads] mode skips the delivery barrier on both register
    paths: writes are acknowledged at broadcast time and reads served
    directly from the local table — a deliberately broken register (the
    classic fast-ack bug) for the [register_mutated] harness self-test,
    which the linearizability oracle must catch.  A register records its
    mode durably; a snapshot object has none and is always atomic. *)

open Dcp_wire
module Runtime = Dcp_core.Runtime
module Clock = Dcp_sim.Clock

val def_name : string
(** ["scd_register"] *)

val metric_malformed : string

(** The members' durable LWW table: a volatile key → (value, ts) map
    mirrored into the guardian's store under ["k:"] keys. *)
module Table : sig
  val in_store : Dcp_stable.Store.t -> (string * Scd.ts) list
  (** Key-sorted (key, winning ts) shape of a member's durable table — the
      convergence-oracle accessor (value agreement follows from ts
      agreement, as with {!Replica.table_in_store}). *)
end

val create_members :
  Runtime.world ->
  def_name:string ->
  port_type:Vtype.port_type ->
  mode:Value.t list ->
  nodes:Runtime.node_id list ->
  introduce_at:Runtime.node_id ->
  Port_name.t list
(** The group constructor behind {!create_group} and
    {!Snapshot.create_group}: one member per node under [def_name] (its
    definition registered on first use) with [port_type] on its request
    port, introduced to each other by a bootstrap guardian at
    [introduce_at].  Each member's args are {!Scd.default_config}'s
    [[status_every; resend_max]], followed by [mode]: [[stale_reads]] for a
    register, [[]] for a snapshot object.  Returns the request ports in
    [nodes] order. *)

val create_group :
  Runtime.world ->
  nodes:Runtime.node_id list ->
  ?stale_reads:bool ->
  introduce_at:Runtime.node_id ->
  unit ->
  Port_name.t list
(** One register member per node, introduced to each other by a bootstrap
    guardian at [introduce_at] (pick a node outside the crash schedule).
    Returns the members' request ports in [nodes] order. *)

(** {1 Client helpers}

    Single-attempt calls (see the module preamble); [None]/[false] covers
    timeout, failure and not-yet-joined members alike. *)

val write :
  Runtime.ctx -> register:Port_name.t -> key:string -> value:Value.t ->
  timeout:Clock.time -> bool

val read :
  Runtime.ctx -> register:Port_name.t -> key:string -> timeout:Clock.time ->
  Value.t option
