(** The guardian runtime: the paper's abstract machine.

    A {!world} holds the simulation engine, the network, and a set of nodes;
    each node hosts guardians; each guardian owns ports, processes, a
    private heap (ordinary OCaml state captured by its closures), a token
    seal, and a stable store.  The runtime implements:

    - {b no-wait send} (§3.4): [send] returns once the message is composed
      and scheduled; encode errors surface at the sender, nothing else does.
    - {b receive with timeout} (§3.4) over prioritised port lists.
    - {b system failure messages}: a discarded message that carried a reply
      port produces [failure(reason)] on that port.
    - {b guardian creation at the creator's node} (§2.1/§3.2): in-model
      creation is only possible through a ctx, pinning the new guardian to
      the creating guardian's node.  Bootstrap placement (standing in for a
      node owner installing software) uses {!create_guardian}.
    - {b node crash and per-guardian recovery} (§2.2): a crash kills every
      process and port buffer on the node and tears volatile state away;
      guardians whose definition supplies a [recover] procedure come back
      when the node restarts, with their stable store recovered and their
      port names intact.  Guardians without one stay dead — the paper's
      "forget rather than resume" choice for transaction processes.

    {b Sharding.}  A world may be partitioned into [shards] shards, each
    owning a complete execution stack (engine, network, metrics, RNG
    streams) and a subset of the nodes (node [i] of the topology lives on
    shard [i mod shards]; guardians inherit their home node's shard for
    life).  Intra-shard messages are delivered locally with no
    synchronization; cross-shard messages are simulated on the source
    shard's network and buffered into per-(src,dst) outboxes, exchanged
    only at epoch barriers and injected into the destination engine in
    canonical order (source shard ascending, then send order).  Execution
    is bit-identical for a fixed (seed, shards) whether the shards run
    sequentially or on [shards] domains ([parallel:true]); [shards = 1]
    reproduces the unsharded runtime exactly.

    Inspection: {!guardian_alive} and {!idle_processors} are called only
    by tests, which check guardian and processor state through them. *)

open Dcp_wire
module Clock = Dcp_sim.Clock

type world
type guardian
type ctx
(** Capability handed to a guardian's code: all in-model operations go
    through it, which is what pins them to that guardian and its node. *)

type node_id = int

(** A guardian definition — the [guardian_def] of §3.2.  [provides] lists
    the port types created with each instance; [init] is "the sequential
    program to be run when an instance is created"; [recover], when present,
    is the recovery process started after a node crash. *)
type def = {
  def_name : string;
  provides : (Vtype.port_type * int) list;  (** (port type, buffer capacity) *)
  init : ctx -> Value.t list -> unit;
  recover : (ctx -> unit) option;
}

(** {1 World setup} *)

type config = {
  codec : Codec.config;
  mtu : int;
  processors_per_node : int;
      (** §1.1: "each node consists of one or more processors" — the units
          {!compute} contends for (default 8) *)
  disk : Dcp_stable.Disk.spec option;
      (** attach a disk-fault injector to every guardian store (default
          [None]: perfect disks, on which a crash loses nothing a guardian
          logged).  The injector is the only way a crash damages a store.
          Each store gets its own RNG stream split from its shard's system
          stream; appends may stall, crashes may tear/drop un-flushed
          records and rot flushed state.  The runtime flushes a guardian's
          store before any of its messages leaves the node, so acknowledged
          state survives every non-rot fault, and rot is salvaged or
          quarantined at recovery ([stable.*] metrics). *)
  checkpoint_every : int option;
      (** auto-checkpoint a guardian store after this many mutations
          (default [None]: only explicit {!Dcp_stable.Store.checkpoint}
          calls compact), bounding recovery replay to O(interval). *)
  trace : bool;
      (** keep a readable {!trace} (default [false]).  An untraced world's
          trace only counts its events ({!Dcp_sim.Trace.counting}): it
          keeps no sent body, builds no guardian label and formats no
          event text, and reads as empty.  Tests and tools that read a
          trace opt in with [{ default_config with trace = true }].  The
          choice changes nothing a world does: every message, RNG draw,
          fingerprint and [Trace.total] is the same either way. *)
}

val default_config : config

val create_world :
  seed:int ->
  topology:Dcp_net.Topology.t ->
  ?config:config ->
  ?shards:int ->
  ?parallel:bool ->
  unit ->
  world
(** [shards] (default 1) partitions the world; shards exchange cross-shard
    messages at barriers 1 ms of virtual time apart (the epoch);
    [parallel] (default false) runs each epoch on [shards] domains.  The
    trace is identical for a fixed (seed, shards) regardless of
    [parallel].  Messages between guardians on one node take 5 µs.
    Each shard's trace keeps events only when [config.trace] is set.
    @raise Invalid_argument if [shards < 1]. *)

val network : world -> Dcp_net.Network.t
(** Shard 0's network instance (all shards share the topology; loss/delay
    profile knobs on any instance affect only traffic simulated there). *)

val now : world -> Clock.time
(** Shard 0's clock.  At epoch barriers all shard clocks agree. *)

val run : world -> unit
val run_for : world -> Clock.time -> unit
val metrics : world -> Dcp_sim.Metrics.registry
(** With [shards = 1], the live registry.  Otherwise a merged snapshot of
    the per-shard registries (counters sum, gauges max, histograms add);
    reading it is cheap but not free — hot code should hold a ctx and use
    {!ctx_metrics}. *)

val trace : world -> Dcp_sim.Trace.t
(** Shard 0's trace: empty, though still counting, unless the world was
    created with [config.trace]. *)

val registry : world -> Transmit.registry
val world_rng : world -> Dcp_rng.Rng.t
(** A dedicated stream for workload generators, split from the world seed.
    In a sharded world this is shard 0's stream; in-model code should draw
    from {!ctx_rng} so each shard consumes its own stream. *)

val events_executed : world -> int
(** Total engine events executed, summed across shards. *)

val network_stats : world -> Dcp_net.Network.stats
(** Network counters summed across shards. *)

val schedule_at : world -> node:node_id -> at:Clock.time -> (unit -> unit) -> unit
(** Host-side scheduling pinned to the shard owning [node]: the callback
    runs on that shard's engine, so it may touch the node (crash it,
    restart it, read its state) even in a parallel run.  It is the one
    way fault injectors and workload drivers outside the model schedule
    work. @raise Invalid_argument on unknown node. *)

val register_def : world -> def -> unit
(** Add a guardian definition to the system library (compile-time library of
    guardian headers, §3.2).  @raise Invalid_argument on duplicate names. *)

val find_def : world -> string -> def option

(** {1 Guardians} *)

val create_guardian :
  world -> at:node_id -> def_name:string -> args:Value.t list -> guardian
(** Bootstrap placement of a guardian at a node (the node owner installing
    software).  In-model creation must use {!ctx_create_guardian} or the
    primordial guardian protocol.
    @raise Invalid_argument on unknown node/def or a down node. *)

val guardian_id : guardian -> int
val guardian_def_name : guardian -> string
val guardian_node : guardian -> node_id
val guardian_alive : guardian -> bool
val guardian_ports : guardian -> Port_name.t list
(** Names of the ports the guardian currently provides, in creation order. *)

val guardians_at : world -> node_id -> guardian list

val find_guardians : world -> def_name:string -> guardian list
(** Instances of a definition in creation order, O(1) in the number of other
    guardians (indexed by definition name). *)

val all_guardians : world -> guardian list
(** Every guardian in the world, in creation order. *)

val guardian_store : guardian -> Dcp_stable.Store.t
(** The guardian's stable store, for tests and observability harnesses.
    In-model code should use {!store} on its own ctx — a guardian's store
    is private to it. *)

(** {1 Node failure} *)

val node_up : world -> node_id -> bool
val crash_node : world -> node_id -> unit
(** Idempotent. Volatile state is lost; stable stores survive (modulo a
    possibly torn final record). *)

val restart_node : world -> node_id -> unit
(** Bring the node back; recoverable guardians recover: stable store
    replayed, birth ports reopened (same names), the [recover] process
    spawned.  Runtime-minted ports ({!new_port}) do *not* survive — the
    conversations they served are forgotten, per §3.5. *)

val crash_count : world -> node_id -> int

(** {1 Operations inside a guardian (ctx)} *)

val ctx_world : ctx -> world
val ctx_guardian : ctx -> guardian
val ctx_now : ctx -> Clock.time

val ctx_metrics : ctx -> Dcp_sim.Metrics.registry
(** This guardian's shard's live registry.  Primitives must record their
    counters here (not through {!metrics}), keeping the instrumented path
    shard-local. *)

val ctx_rng : ctx -> Dcp_rng.Rng.t
(** This guardian's shard's workload stream.  Equals {!world_rng} when
    [shards = 1]. *)

val ctx_mint_id : ctx -> int
(** A fresh id unique across the world and deterministic per
    (seed, shards): minted from a per-shard strided counter (shard k mints
    k, k+N, k+2N, …).  For request/channel ids that end up inside message
    bytes — a cross-domain atomic counter would break sequential/parallel
    bit-identity. *)

exception Send_failed of string
(** Raised by {!send} only for sender-side errors: the value failed to
    encode (bounds, unregistered abstract type) — §3.4 step 1.  Transport
    problems are never raised; they surface, at most, as failure messages. *)

val send :
  ctx -> to_:Port_name.t -> ?reply_to:Port_name.t -> string -> Value.t list -> unit
(** No-wait send of [command(args)].  Returns immediately after encoding
    and scheduling the message.  A traced world ([config.trace]) records
    the send as its encoded body, rendered only when the trace is read; an
    untraced one only counts it.  A message that fails to encode raises
    {!Send_failed} before anything else happens: it is not traced, and the
    guardian's store is not flushed. *)

val send_command :
  ctx -> to_:Port_name.t -> ?reply_to:Port_name.t -> 'a Command.t -> 'a -> unit
(** No-wait send of a typed command: the same checks ({!Transmit.check_named}
    over its {!Command.any} arguments), bytes, trace, flush and
    {!Send_failed} as {!send} of its Value arguments
    ({!Command.payload_values}), written without building them. *)

val accept : ctx -> Port.t -> Command.decl -> unit
(** Declare the typed commands one of this guardian's ports accepts
    ({!Port.declare}).  From then on the runtime reads each message's
    arguments by the declaration, and that read is the port's type check:
    the message is delivered with [typed] set and no [args].  Arguments
    the read refuses are read again as values ({!Message.of_wire}) and
    fail the port's type check, so the message is discarded with the same
    reason and failure message as on an untyped port of the same type.  A
    declaration survives the node's crashes.
    @raise Invalid_argument on another guardian's port or another port
    type. *)

val receive :
  ctx -> ?timeout:Clock.time -> Port.t list -> [ `Msg of Port.t * Message.t | `Timeout ]
(** Receive on a prioritised port list.  All ports must belong to this
    guardian — "only processes within that guardian can receive messages
    from it" (§3.2). @raise Invalid_argument otherwise. *)

val port : ctx -> int -> Port.t
(** The guardian's port with index [i] (birth ports get 0..n-1).  Indices are
    stable: removing a port never renumbers the others.
    @raise Invalid_argument. *)

val new_port : ctx -> ?capacity:int -> Vtype.port_type -> Port.t
(** Mint a fresh port at runtime — Figure 5's [s: replyport := new port],
    buffering [capacity] messages (default 64).  Port indices are minted
    from a per-guardian monotonic counter, so a new port never collides
    with a live port's index even after removals. *)

val remove_port : ctx -> Port.t -> unit
(** Discard a runtime-minted port (a finished conversation): late messages
    to it are discarded with failure("target port does not exist"). *)

val spawn : ctx -> name:string -> (unit -> unit) -> Process.t
(** Fork a process inside the guardian (Figures 1b/1c, §2.3). *)

val sleep : ctx -> Clock.time -> unit
(** Block for virtual time without using a processor (waiting on a device,
    a human, a timer). *)

val compute : ctx -> Clock.time -> unit
(** Occupy one of this node's processors for the given duration, queueing
    (FIFO) when all are busy — the contention of §1's Advantage 1.  All
    guardians at a node share its processors; colocating too much work on
    one node shows up here. *)

val idle_processors : world -> node_id -> int
(** Processors currently free at a node (observability for tests). *)

val ctx_create_guardian : ctx -> def_name:string -> args:Value.t list -> guardian
(** In-model creation: the new guardian lives at this guardian's node. *)

val self_destruct : ctx -> unit
(** The guardian removes itself: ports close, processes die (the caller
    stops at its next blocking point). *)

val store : ctx -> Dcp_stable.Store.t
(** The guardian's stable store (survives node crashes). *)

val seal_token : ctx -> obj:int -> Token.t
val unseal_token : ctx -> Token.t -> int option
(** Sealed-capability tokens for guardian-local objects (§2.1); unsealing a
    token sealed by any other guardian yields [None]. *)

val sync_mutex : ctx -> Sync.mutex
val sync_condition : ctx -> Sync.condition
val sync_keyed_lock : ctx -> 'k Sync.keyed_lock
(** Fresh synchronization objects bound to this world's engine. *)
