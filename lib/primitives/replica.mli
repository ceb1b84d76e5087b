(** Distributed simultaneous update: replicated registers with anti-entropy.

    §3's first example of the protocols the chosen primitive must express
    is "distributed simultaneous updates" — several nodes accepting writes
    to the same logical datum concurrently.  This module implements the
    classic timestamp solution of that literature: every write is stamped
    with a Lamport clock paired with the origin's id; each replica keeps
    the value with the lexicographically largest stamp (last-writer-wins),
    gossips accepted writes to a small deterministic fanout of peers, and
    runs periodic anti-entropy so replicas that missed an update (lost
    message, crash) converge.

    Anti-entropy is a digest/diff/pull exchange over byte-budgeted key
    windows (see {!Reconcile} for the pure half and DESIGN.md §11 for the
    protocol): each tick a replica draws [fanout] peers from its split of
    the world RNG and sends the digest of one window to those of them it
    does not know to hold its table; the receiver answers with
    [sync_delta] for keys it holds newer and [sync_pull] for keys the
    sender holds newer or the receiver lacks.  Every sync message is packed
    under a configurable byte budget (Codec encoded size, 32 KiB default),
    with a cursor carrying reconciliation across rounds when the table is
    bigger than one message.

    A converged group goes quiet.  Each replica keeps a 64-bit hash of its
    key → stamp table ({!Reconcile.table_hash}) and, for each peer, the
    last hash that peer reported; every sync message carries its sender's
    hash.  A digest that finds the tables equal is answered by one
    [sync_ack], unless it shows that its sender already knew.  A replica
    that knows every peer holds its hash sends only one keepalive digest,
    to one drawn peer, every 8 periods.  Beliefs are volatile: a
    recovering replica digests every peer it draws until it has heard
    from it.

    Port (RPC convention):
    {v
    write(key, value)            replies (written(stamp))
    read(key)                    replies (value(v, stamp), unknown_key)
    join(peer_ports)             replies (joined)        -- setup, idempotent
    gossip(key, value, stamp)                            -- replica to replica
    sync_digest(lo, hi?, entries, hash, believed?)       -- anti-entropy offer
    sync_pull(keys, hash)                                -- request newer entries
    sync_delta(entries, hash)                            -- stamped values
    sync_ack(hash)                                       -- "our tables are equal"
    v}

    A hash is an 8-byte string ({!Reconcile.hash_string}); [believed] is
    the hash the digest's sender believes the receiver holds.  Digests,
    pulls, deltas and acks name their sender by [reply_to].

    The port is declared from the typed commands below
    ({!Dcp_core.Runtime.accept}), so the runtime reads each message's
    arguments straight into OCaml values, and the replica sends its
    gossip and sync messages with {!Dcp_core.Runtime.send_command}: the
    bytes are those of the Value form.  A message of the wrong shape is
    refused by the runtime with a failure message, as the port type
    always refused it.  Semantically malformed replica-to-replica
    messages (invalid stamps, bad windows, hashes that are not 8 bytes)
    are dropped and counted on the [replica.malformed] metric — never
    raised, per §3.4's best-effort delivery.  Replicas recover after a node crash with their membership
    and sync configuration (stable store) but an empty table: the data is
    soft state that anti-entropy refills, and the recovering replica
    adopts the largest Lamport counter its peers claim before accepting
    new writes.

    Inspection: the command values {!write_request}, {!read_request},
    {!join_request}, {!gossip}, {!sync_pull}, {!sync_delta} and
    {!sync_ack}, and {!peers_in_store}, are named only by tests, which pin
    the typed path to the Value path and read a replica's peers from its
    store through them. *)

open Dcp_wire

val def_name : string

(** {1 Commands}

    The replica's port is typed ({!Dcp_core.Runtime.accept}): each command
    below is its one declaration, which gives the port type, the typed
    send and the handler's arguments. *)

val write_request : (int * string * Value.t) Command.t
val read_request : (int * string) Command.t
val join_request : (int * Port_name.t list) Command.t
val gossip : (string * Value.t * Reconcile.stamp) Command.t

val sync_digest :
  (string * string option * (string * Reconcile.stamp) list * string * string option) Command.t
(** [(lo, hi, entries, hash, believed)], hashes as {!Reconcile.hash_string}. *)

val sync_pull : (string list * string) Command.t
val sync_delta : ((string * Value.t * Reconcile.stamp) list * string) Command.t
val sync_ack : string Command.t

val commands : Command.decl

val port_type : Vtype.port_type
(** [Command.port_type commands]. *)

val def : Dcp_core.Runtime.def

val create_group :
  Dcp_core.Runtime.world ->
  nodes:Dcp_core.Runtime.node_id list ->
  ?sync_every:Dcp_sim.Clock.time ->
  ?fanout:int ->
  ?byte_budget:int ->
  unit ->
  Port_name.t list
(** Create one replica guardian at each node and introduce them to each
    other.  [sync_every] is the anti-entropy period (default 500 ms);
    [fanout] is how many peers each tick's digest goes to (default 2);
    [byte_budget] bounds every sync message's encoded payload (default
    {!Reconcile.default_budget}).  Returns the replicas' request ports, in
    node order. *)

(** {1 Client helpers} *)

val write :
  Dcp_core.Runtime.ctx ->
  replica:Port_name.t ->
  key:string ->
  value:Value.t ->
  timeout:Dcp_sim.Clock.time ->
  bool
(** Write through one replica; [true] on acknowledgement. *)

val read :
  Dcp_core.Runtime.ctx ->
  replica:Port_name.t ->
  key:string ->
  timeout:Dcp_sim.Clock.time ->
  Value.t option

(** {1 Observability}

    Store accessors for oracles and tests (the bank/airline convention:
    guardians mirror oracle-visible state into their stable store; harness
    code reads it through {!Dcp_core.Runtime.guardian_store}). *)

val table_in_store : Dcp_stable.Store.t -> (string * Reconcile.stamp) list
(** The replica's key → stamp table as mirrored in its store, sorted by
    key.  Convergence means: equal on every live replica. *)

val peers_in_store : Dcp_stable.Store.t -> Port_name.t list
(** The persisted membership (what a recovering replica rejoins with). *)

(** {1 Metric names} *)

val metric_malformed : string
val metric_sync_msgs : string
val metric_sync_bytes : string
val metric_over_budget : string
val metric_max_bytes : string
val metric_pulls : string
val metric_pushes : string

val metric_sync_acks : string
(** [sync_ack]s sent; they are counted in [metric_sync_msgs] too. *)

val metric_keepalives : string
(** Digests sent by a replica that knew every peer to hold its table. *)
