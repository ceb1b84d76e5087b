open Dcp_wire
module Clock = Dcp_sim.Clock
module Engine = Dcp_sim.Engine
module Exec = Dcp_sim.Exec
module Metrics = Dcp_sim.Metrics
module Trace = Dcp_sim.Trace
module Network = Dcp_net.Network
module Topology = Dcp_net.Topology
module Store = Dcp_stable.Store
module Disk = Dcp_stable.Disk
module Rng = Dcp_rng.Rng

(* The int-keyed delivery tables, hashed by identity rather than through
   [Hashtbl.hash]'s C call: node ids, gids and port uids are small and
   dense.  The only fold over one ([all_guardians]) sorts what it folds. *)
module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)

type node_id = int

type config = {
  codec : Codec.config;
  mtu : int;
  processors_per_node : int;
  disk : Disk.spec option;
  checkpoint_every : int option;
  trace : bool;
}

let default_config =
  {
    codec = Codec.default_config;
    mtu = 1024;
    processors_per_node = 8;
    disk = None;
    checkpoint_every = None;
    trace = false;
  }

(* Intra-node message latency, the capacity of a port minted without one,
   and the barrier spacing for cross-shard exchange. *)
let local_delay = Clock.us 5
let default_port_capacity = 64
let epoch = Clock.ms 1

(* Metric handles resolved once at world creation so the per-message path
   (send -> dispatch -> deliver) never does a string-keyed registry lookup. *)
type hot_metrics = {
  m_send_total : Metrics.counter;
  m_send_local : Metrics.counter;
  m_send_remote : Metrics.counter;
  m_send_dead : Metrics.counter;
  m_deliver_ok : Metrics.counter;
  m_deliver_discarded : Metrics.counter;
  m_failure_sent : Metrics.counter;
  m_deliver_unknown_node : Metrics.counter;
  m_deliver_node_down : Metrics.counter;
  m_deliver_malformed : Metrics.counter;
  m_latency_us : Metrics.histogram;
}

(* ------------------------------------------------------------------ *)
(* Shards                                                              *)
(*                                                                     *)
(* A world is partitioned into [shard_count] shards.  Each shard owns a *)
(* complete execution stack — engine, network instance, metrics, trace, *)
(* RNG streams, id counters — and hosts a subset of the nodes (node i   *)
(* of the topology lives on shard i mod N, so placement is a pure       *)
(* function of (topology, shard_count)).  A guardian lives on its home  *)
(* node's shard for life; gids are strided (shard_id + k*N), so         *)
(* gid mod N recovers the shard.                                        *)
(*                                                                     *)
(* Single-writer discipline: during an epoch, a shard's state is        *)
(* touched only by the domain running that shard.  The one exception    *)
(* is the outbox: a message whose destination node lives on another     *)
(* shard is simulated on the SOURCE shard's network (delay, loss,       *)
(* fragmentation, all from the source shard's net RNG) and, at          *)
(* reassembly, appended to the source shard's outbox for the            *)
(* destination shard instead of being delivered.  Outboxes are drained  *)
(* only at epoch barriers, by the coordinating domain, while every      *)
(* shard is parked — the sealed exchange.  Injection order is canonical *)
(* (source shard ascending, then append order), so destination-engine   *)
(* sequence numbers — and therefore all tie-breaks — are independent of *)
(* how the epoch itself was executed.  That is the whole bit-identity   *)
(* argument: sequential and domain-parallel execution of an epoch       *)
(* perform identical per-shard work on disjoint state, and the only     *)
(* cross-shard flow is a deterministic merge at the barrier.            *)
(*                                                                     *)
(* [shards = 1] short-circuits every barrier path: one shard, no        *)
(* forwarders, no epochs — exactly the pre-shard runtime, reproducing   *)
(* its traces bit for bit.                                              *)
(* ------------------------------------------------------------------ *)

type world = {
  config : config;
  registry : Transmit.registry;
  shard_count : int;
  parallel : bool;  (** run epochs on [shard_count] domains *)
  shards : shard array;
  nodes : node Int_tbl.t;
  defs : (string, def) Hashtbl.t;
  mutable barrier : Clock.time;  (** last epoch boundary; shard clocks agree here *)
}

and shard = {
  shard_id : int;
  sengine : Engine.t;
  snetwork : Network.t;  (** full topology; foreign nodes forward to outboxes *)
  smetrics : Metrics.registry;
  shot : hot_metrics;
  sencoder : Codec.encoder;  (** scratch-buffer encoder for this shard's send path *)
  strace : Trace.t;
  ssys_rng : Rng.t;  (** secrets, disk-injector streams *)
  sworkload_rng : Rng.t;  (** handed to user workload generators *)
  sguardians_by_def : (string, guardian list ref) Hashtbl.t;  (** newest first *)
  mutable snext_guardian_id : int;  (** strided: shard_id + k * shard_count *)
  mutable snext_port_uid : int;  (** strided *)
  mutable snext_mint_id : int;  (** strided; deterministic ids for primitives *)
  outboxes : (Clock.time * node_id * string) list ref array;
      (** per destination shard, newest first; drained at barriers *)
}

and node = {
  node_id : node_id;
  world : world;
  shard : shard;
  mutable up : bool;
  mutable guardians : guardian list;  (** newest first *)
  gindex : guardian Int_tbl.t;  (** gid -> guardian, for delivery *)
  mutable crash_count : int;
  mutable cpus : Sync.semaphore;  (** the node's processors (§1.1) *)
  mutable ncommands : (Port_name.t -> Command.decl option) option;
      (** the declaration of a target port, once a port here is typed *)
}

and guardian = {
  gid : int;
  gdef : def;
  glabel : string;
      (** ["def_name#gid"], the sender of its trace events; [""] on an
          untraced world, whose counting trace never reads it *)
  home : node;
  secret : int64;
  gstore : Store.t;
  mutable galive : bool;
  mutable gports : Port.t list;  (** creation order *)
  gport_index : Port.t Int_tbl.t;  (** port uid -> port, for delivery *)
  mutable next_port_index : int;
      (** monotonic: indices are never reused, even after {!remove_port} *)
  mutable gprocs : Process.t list;
}

and def = {
  def_name : string;
  provides : (Vtype.port_type * int) list;
  init : ctx -> Value.t list -> unit;
  recover : (ctx -> unit) option;
}

and ctx = { cworld : world; cguardian : guardian }

let shard0 w = w.shards.(0)
let network w = (shard0 w).snetwork
let now w = Engine.now (shard0 w).sengine

let metrics w =
  if w.shard_count = 1 then (shard0 w).smetrics
  else Metrics.merge (Array.to_list (Array.map (fun s -> s.smetrics) w.shards))

let trace w = (shard0 w).strace
let registry w = w.registry
let world_rng w = (shard0 w).sworkload_rng

let events_executed w =
  Array.fold_left (fun acc s -> acc + Engine.events_executed s.sengine) 0 w.shards

let network_stats w =
  Array.fold_left
    (fun acc s ->
      let st = Network.stats s.snetwork in
      {
        Network.messages_sent = acc.Network.messages_sent + st.Network.messages_sent;
        messages_delivered = acc.Network.messages_delivered + st.Network.messages_delivered;
        fragments_sent = acc.Network.fragments_sent + st.Network.fragments_sent;
        fragments_lost = acc.Network.fragments_lost + st.Network.fragments_lost;
        fragments_corrupted = acc.Network.fragments_corrupted + st.Network.fragments_corrupted;
        fragments_duplicated =
          acc.Network.fragments_duplicated + st.Network.fragments_duplicated;
        partition_drops = acc.Network.partition_drops + st.Network.partition_drops;
        bytes_sent = acc.Network.bytes_sent + st.Network.bytes_sent;
        partials_expired = acc.Network.partials_expired + st.Network.partials_expired;
      })
    {
      Network.messages_sent = 0;
      messages_delivered = 0;
      fragments_sent = 0;
      fragments_lost = 0;
      fragments_corrupted = 0;
      fragments_duplicated = 0;
      partition_drops = 0;
      bytes_sent = 0;
      partials_expired = 0;
    }
    w.shards

let scount sh name = Metrics.incr (Metrics.counter sh.smetrics name)
let stracef sh category fmt = Trace.recordf sh.strace ~at:(Engine.now sh.sengine) ~category fmt

let register_def w def =
  if Hashtbl.mem w.defs def.def_name then
    invalid_arg (Printf.sprintf "Runtime.register_def: %s already registered" def.def_name);
  Hashtbl.replace w.defs def.def_name def

let find_def w name = Hashtbl.find_opt w.defs name

let guardian_id g = g.gid
let guardian_def_name g = g.gdef.def_name
let guardian_node g = g.home.node_id
let guardian_alive g = g.galive
let guardian_ports g = List.map Port.name g.gports
let guardians_at w node_id =
  match Int_tbl.find_opt w.nodes node_id with
  | None -> []
  | Some node -> List.rev node.guardians

let guardian_store g = g.gstore

(* Per-shard lists are newest-first; creation order is ascending gid, so
   the world-level view is the gid-sorted merge (for one shard, plain
   reversal — the pre-shard behaviour). *)
let find_guardians w ~def_name =
  let of_shard sh =
    match Hashtbl.find_opt sh.sguardians_by_def def_name with
    | None -> []
    | Some gs -> List.rev !gs
  in
  if w.shard_count = 1 then of_shard (shard0 w)
  else
    Array.to_list w.shards
    |> List.concat_map of_shard
    |> List.sort (fun a b -> Int.compare a.gid b.gid)

(* World-level view in creation (gid) order, like [find_guardians]. *)
let all_guardians w =
  Int_tbl.fold (fun _ node acc -> List.rev_append node.guardians acc) w.nodes []
  |> List.sort (fun a b -> Int.compare a.gid b.gid)

let node_up w node_id =
  match Int_tbl.find_opt w.nodes node_id with None -> false | Some n -> n.up

let crash_count w node_id =
  match Int_tbl.find_opt w.nodes node_id with None -> 0 | Some n -> n.crash_count

let ctx_world c = c.cworld
let ctx_guardian c = c.cguardian
let ctx_shard c = c.cguardian.home.shard
let ctx_now c = Engine.now (ctx_shard c).sengine
let ctx_engine c = (ctx_shard c).sengine
let ctx_metrics c = (ctx_shard c).smetrics
let ctx_rng c = (ctx_shard c).sworkload_rng

let ctx_mint_id c =
  let sh = ctx_shard c in
  let id = sh.snext_mint_id in
  sh.snext_mint_id <- id + c.cworld.shard_count;
  id

exception Send_failed of string

(* ------------------------------------------------------------------ *)
(* Delivery                                                            *)
(* ------------------------------------------------------------------ *)

(* A node's lookup of a target port's declaration, for the reader: no
   option is allocated on the way. *)
let port_commands node target =
  match Int_tbl.find node.gindex target.Port_name.guardian with
  | exception Not_found -> None
  | g -> (
      if not g.galive then None
      else
        match Int_tbl.find g.gport_index target.Port_name.uid with
        | exception Not_found -> None
        | p -> if Port_name.equal (Port.name p) target then Port.commands p else None)

(* An encoded body, or the sender-side error §3.4 lets surface. *)
let encoded = function
  | Error e -> raise (Send_failed (Format.asprintf "%a" Codec.pp_error e))
  | Ok body -> body

(* [reject] runs on the rejecting node's shard; the failure message
   originates there and is dispatched like any other send, so rejection,
   delivery and dispatch form one recursive group.  The codec's bounds
   apply to system messages too: a failure message they refuse (a reason
   past [max_string]) is dropped and counted, since no sender is there to
   raise {!Send_failed} to.  So is one whose reply port names a node
   outside the world, which no network can carry (a corrupt envelope's
   port, say). *)
let rec reject w node msg reason =
  let sh = node.shard in
  Metrics.incr sh.shot.m_deliver_discarded;
  stracef sh "discard" "%s: %a" reason Message.pp msg;
  match msg.Message.reply_to with
  | Some reply_port when not (Message.is_failure msg) -> (
      let failure = Message.failure ~reason ~sent_at:(Engine.now sh.sengine) in
      match Message.to_wire sh.sencoder ~target:reply_port failure with
      | Ok _ when not (Topology.mem (Network.topology sh.snetwork) reply_port.Port_name.node) ->
          scount sh "failure.unroutable"
      | Ok body ->
          Metrics.incr sh.shot.m_failure_sent;
          dispatch w ~from:node ~target:reply_port body
      | Error _ -> scount sh "failure.unencodable")
  | Some _ | None -> ()

(* A message read by its port's declaration was checked by that read;
   any other is checked against the port type. *)
and deliver_message w node target msg =
  match Int_tbl.find node.gindex target.Port_name.guardian with
  | exception Not_found -> reject w node msg "target guardian does not exist"
  | g when not g.galive -> reject w node msg "target guardian does not exist"
  | g -> (
      match Int_tbl.find g.gport_index target.Port_name.uid with
      | exception Not_found -> reject w node msg "target port does not exist"
      | port when not (Port_name.equal (Port.name port) target) ->
          reject w node msg "target port does not exist"
      | port -> (
          match msg.Message.typed with
          | Some _ -> enqueue w node port msg
          | None -> (
              match
                Vtype.check_message (Port.ptype port) ~command:msg.Message.command
                  msg.Message.args
              with
              | Error reason -> reject w node msg ("message rejected: " ^ reason)
              | Ok () -> enqueue w node port msg)))

and enqueue w node port msg =
  let sh = node.shard in
  match Port.enqueue port msg with
  | `Delivered | `Queued ->
      Metrics.incr sh.shot.m_deliver_ok;
      Metrics.observe sh.shot.m_latency_us
        (Clock.to_float_us (Clock.diff (Engine.now sh.sengine) msg.Message.sent_at))
  | `Full -> reject w node msg "no room at target port"
  | `Closed -> reject w node msg "target port does not exist"

(* [sh] is the shard whose engine is executing this delivery — the
   destination node's shard, except for the unknown-node tally. *)
and deliver_body w sh dst_node_id body =
  match Int_tbl.find w.nodes dst_node_id with
  | exception Not_found -> Metrics.incr sh.shot.m_deliver_unknown_node
  | node -> (
      if not node.up then Metrics.incr node.shard.shot.m_deliver_node_down
      else
        match Message.of_wire ~config:w.config.codec ?commands:node.ncommands body with
        | Ok (target, msg) -> deliver_message w node target msg
        | Error _ -> Metrics.incr node.shard.shot.m_deliver_malformed)

(* Hand an encoded body from a node to its target.  Everything here is
   source-shard state: the engine the local-delivery timer lands on, and
   the network the remote path uses.  If the destination node lives on
   another shard, the source shard's network still simulates the full link
   (delay, loss, fragmentation) — the destination handler is a forwarder
   that parks the reassembled body in the outbox for the barrier
   exchange. *)
and dispatch w ~from ~target body =
  let sh = from.shard in
  if target.Port_name.node = from.node_id then begin
    Metrics.incr sh.shot.m_send_local;
    ignore
      (Engine.schedule_after sh.sengine ~delay:local_delay (fun () ->
           deliver_body w sh target.Port_name.node body))
  end
  else begin
    Metrics.incr sh.shot.m_send_remote;
    Network.send sh.snetwork ~src:from.node_id ~dst:target.Port_name.node body
  end

(* Detail text of a deferred send event, made only when the trace is read:
   the envelope decodes to the target and the message as they were sent. *)
let render_send config label body =
  match Message.of_wire ~config body with
  | Ok (target, msg) -> Format.asprintf "%s -> %a: %a" label Port_name.pp target Message.pp msg
  | Error e -> Format.asprintf "%s -> <undecodable: %a>" label Codec.pp_error e

(* ------------------------------------------------------------------ *)
(* World setup                                                         *)
(* ------------------------------------------------------------------ *)

let install_handler w node =
  Network.set_handler node.shard.snetwork node.node_id (fun ~src:_ body ->
      deliver_body w node.shard node.node_id body)

(* On every OTHER shard, this node's handler forwards reassembled bodies
   into that shard's outbox, stamped with the source shard's arrival time.
   Forwarders are installed once and never cleared: whether the
   destination node is up is its own shard's business, checked by
   [deliver_body] after the exchange. *)
let install_forwarders w node =
  Array.iter
    (fun src_shard ->
      if src_shard != node.shard then
        let out = src_shard.outboxes.(node.shard.shard_id) in
        Network.set_handler src_shard.snetwork node.node_id (fun ~src:_ body ->
            out := (Engine.now src_shard.sengine, node.node_id, body) :: !out))
    w.shards

let create_world ~seed ~topology ?(config = default_config) ?(shards = 1) ?(parallel = false)
    () =
  if shards < 1 then invalid_arg "Runtime.create_world: shards must be positive";
  let root = Rng.create ~seed in
  let hot_of metrics =
    {
      m_send_total = Metrics.counter metrics "send.total";
      m_send_local = Metrics.counter metrics "send.local";
      m_send_remote = Metrics.counter metrics "send.remote";
      m_send_dead = Metrics.counter metrics "send.dead_guardian";
      m_deliver_ok = Metrics.counter metrics "deliver.ok";
      m_deliver_discarded = Metrics.counter metrics "deliver.discarded";
      m_failure_sent = Metrics.counter metrics "failure.sent";
      m_deliver_unknown_node = Metrics.counter metrics "deliver.unknown_node";
      m_deliver_node_down = Metrics.counter metrics "deliver.node_down";
      m_deliver_malformed = Metrics.counter metrics "deliver.malformed";
      m_latency_us = Metrics.histogram metrics "latency.message_us";
    }
  in
  (* Shard RNG streams are split from the root in shard order, three per
     shard — for one shard exactly the historical net/sys/workload split,
     so seeds reproduce pre-shard streams bit for bit.  The explicit
     recursion pins the evaluation (and therefore split) order. *)
  let make_shard sid =
    let net_rng = Rng.split root in
    let sys_rng = Rng.split root in
    let workload_rng = Rng.split root in
    let sengine = Engine.create () in
    let snetwork = Network.create ~engine:sengine ~rng:net_rng ~topology ~mtu:config.mtu () in
    let smetrics = Metrics.registry () in
    {
      shard_id = sid;
      sengine;
      snetwork;
      smetrics;
      shot = hot_of smetrics;
      sencoder = Codec.encoder ~config:config.codec ();
      strace =
        (if config.trace then Trace.create ~render:(render_send config.codec) ()
         else Trace.counting ());
      ssys_rng = sys_rng;
      sworkload_rng = workload_rng;
      sguardians_by_def = Hashtbl.create 16;
      snext_guardian_id = sid;
      snext_port_uid = sid;
      snext_mint_id = sid;
      outboxes = Array.init shards (fun _ -> ref []);
    }
  in
  let rec make_shards sid acc =
    if sid = shards then Array.of_list (List.rev acc)
    else make_shards (sid + 1) (make_shard sid :: acc)
  in
  let w =
    {
      config;
      registry = Transmit.registry ();
      shard_count = shards;
      parallel;
      shards = make_shards 0 [];
      nodes = Int_tbl.create 16;
      defs = Hashtbl.create 16;
      barrier = Clock.zero;
    }
  in
  List.iteri
    (fun i node_id ->
      let shard = w.shards.(i mod shards) in
      let node =
        {
          node_id;
          world = w;
          shard;
          up = true;
          guardians = [];
          gindex = Int_tbl.create 16;
          crash_count = 0;
          cpus = Sync.semaphore shard.sengine config.processors_per_node;
          ncommands = None;
        }
      in
      Int_tbl.replace w.nodes node_id node;
      install_handler w node;
      install_forwarders w node)
    (Topology.nodes topology);
  w

(* ------------------------------------------------------------------ *)
(* Epoch barriers                                                      *)
(* ------------------------------------------------------------------ *)

(* Drain every outbox into the destination engines.  Runs only on the
   coordinating domain, while no shard is executing.  The scan is source
   shard ascending, then chronological append order — the canonical order
   that makes destination sequence numbers (and so all same-time
   tie-breaks) independent of execution mode.  Destination clocks sit at
   the barrier, so [Engine.schedule] clamps each arrival into the next
   epoch: cross-shard latency is rounded up to the barrier, which is the
   epoch-barrier equivalence at work. *)
let exchange w =
  let injected = ref 0 in
  Array.iter
    (fun src ->
      Array.iteri
        (fun dst_id out ->
          match !out with
          | [] -> ()
          | items ->
              out := [];
              let dst = w.shards.(dst_id) in
              List.iter
                (fun (at, nid, body) ->
                  incr injected;
                  ignore
                    (Engine.schedule dst.sengine ~at (fun () -> deliver_body w dst nid body)))
                (List.rev items))
        src.outboxes)
    w.shards;
  !injected

(* One barrier-to-barrier window: run every shard to [limit] (on domains
   when [parallel]), then exchange.  [run_until] parks each clock exactly
   at [limit], so the shards agree on the barrier time. *)
let run_epoch w pool limit =
  (match pool with
  | Some pool -> Exec.round pool (fun i -> Engine.run_until w.shards.(i).sengine limit)
  | None -> Array.iter (fun s -> Engine.run_until s.sengine limit) w.shards);
  let _ = exchange w in
  w.barrier <- limit

let with_optional_pool w f =
  if w.parallel && w.shard_count > 1 then Exec.with_pool ~shards:w.shard_count (fun p -> f (Some p))
  else f None

(* Earliest lower bound on pending work across shards, for skipping empty
   epoch windows during drains. *)
let earliest_event w =
  Array.fold_left
    (fun acc s ->
      match Engine.next_time s.sengine with
      | None -> acc
      | Some t -> ( match acc with None -> Some t | Some u -> Some (Clock.compare t u < 0 |> fun lt -> if lt then t else u)))
    None w.shards

let any_pending w = Array.exists (fun s -> Engine.pending s.sengine > 0) w.shards

(* Next barrier: a whole number of epochs past the current one, far enough
   to reach [t]. *)
let next_barrier w t =
  let gap = Clock.diff t w.barrier in
  let steps = Int.max 1 ((gap + epoch - 1) / epoch) in
  Clock.add w.barrier (steps * epoch)

let run_for w d =
  if w.shard_count = 1 then Engine.run_for (shard0 w).sengine d
  else begin
    let target = Clock.add w.barrier d in
    with_optional_pool w (fun pool ->
        while Clock.compare w.barrier target < 0 do
          let limit = next_barrier w (Clock.add w.barrier 1) in
          let limit = if Clock.compare limit target > 0 then target else limit in
          run_epoch w pool limit
        done)
  end

let run w =
  if w.shard_count = 1 then Engine.run (shard0 w).sengine
  else
    with_optional_pool w (fun pool ->
        let rec drain () =
          if any_pending w then begin
            (match earliest_event w with
            | None -> ()
            | Some t -> run_epoch w pool (next_barrier w t));
            drain ()
          end
        in
        drain ())

(* ------------------------------------------------------------------ *)
(* Guardian lifecycle                                                  *)
(* ------------------------------------------------------------------ *)

let fresh_port w node ~gid ~index ~ptype ~capacity =
  let sh = node.shard in
  let uid = sh.snext_port_uid in
  sh.snext_port_uid <- uid + w.shard_count;
  let name = Port_name.make ~node:node.node_id ~guardian:gid ~index ~uid in
  Port.create ~name ~ptype ~capacity

let spawn_in g ~name body =
  let p = Process.spawn g.home.shard.sengine ~name body in
  g.gprocs <- p :: g.gprocs;
  p

let create_guardian_at w node ~def ~args =
  if not node.up then invalid_arg "Runtime.create_guardian: node is down";
  let sh = node.shard in
  let gid = sh.snext_guardian_id in
  sh.snext_guardian_id <- gid + w.shard_count;
  (* Field order matters for the system stream: the secret draw comes
     first (as it always has), and the disk split happens only when a disk
     spec is present — fault-free worlds consume exactly the legacy draw
     sequence, keeping pinned fingerprints valid. *)
  let secret = Rng.bits64 sh.ssys_rng in
  let gstore =
    match w.config.disk with
    | None -> Store.create ?checkpoint_every:w.config.checkpoint_every ()
    | Some spec ->
        let store =
          Store.create ~disk:(spec, Rng.split sh.ssys_rng)
            ?checkpoint_every:w.config.checkpoint_every ()
        in
        (* A stall occupies the appending process for simulated time, like
           any other blocking device wait. *)
        Store.set_stall_handler store (fun stall_ms ->
            Process.sleep sh.sengine (Clock.ms stall_ms));
        store
  in
  let g =
    {
      gid;
      gdef = def;
      glabel = (if w.config.trace then Printf.sprintf "%s#%d" def.def_name gid else "");
      home = node;
      secret;
      gstore;
      galive = true;
      gports = [];
      gport_index = Int_tbl.create 8;
      next_port_index = 0;
      gprocs = [];
    }
  in
  let make_port index (ptype, capacity) = fresh_port w node ~gid ~index ~ptype ~capacity in
  g.gports <- List.mapi make_port def.provides;
  g.next_port_index <- List.length g.gports;
  List.iter (fun p -> Int_tbl.replace g.gport_index (Port.name p).Port_name.uid p) g.gports;
  node.guardians <- g :: node.guardians;
  Int_tbl.replace node.gindex gid g;
  (match Hashtbl.find_opt sh.sguardians_by_def def.def_name with
  | Some gs -> gs := g :: !gs
  | None -> Hashtbl.replace sh.sguardians_by_def def.def_name (ref [ g ]));
  scount sh "guardian.created";
  stracef sh "guardian" "created %s at node %d" g.glabel node.node_id;
  let ctx = { cworld = w; cguardian = g } in
  ignore (spawn_in g ~name:(def.def_name ^ ".init") (fun () -> def.init ctx args));
  g

let create_guardian w ~at ~def_name ~args =
  let node =
    match Int_tbl.find_opt w.nodes at with
    | Some node -> node
    | None -> invalid_arg (Printf.sprintf "Runtime.create_guardian: unknown node %d" at)
  in
  let def =
    match find_def w def_name with
    | Some def -> def
    | None -> invalid_arg (Printf.sprintf "Runtime.create_guardian: unknown def %s" def_name)
  in
  create_guardian_at w node ~def ~args

let ctx_create_guardian c ~def_name ~args =
  let w = c.cworld in
  let def =
    match find_def w def_name with
    | Some def -> def
    | None -> invalid_arg (Printf.sprintf "Runtime.ctx_create_guardian: unknown def %s" def_name)
  in
  (* The paper's placement rule: "The node at which a guardian is created is
     the node where it will exist for its lifetime.  It must have been
     created by (a process in) a guardian at that node."  Affinity falls
     out: the child shares the parent's node, hence its shard. *)
  create_guardian_at w c.cguardian.home ~def ~args

let kill_guardian_volatile g =
  List.iter Port.close g.gports;
  List.iter Process.kill g.gprocs;
  g.gprocs <- [];
  g.galive <- false

let self_destruct c =
  let g = c.cguardian in
  if g.galive then begin
    kill_guardian_volatile g;
    scount g.home.shard "guardian.self_destructed";
    stracef g.home.shard "guardian" "self-destruct %s" g.glabel
  end

(* ------------------------------------------------------------------ *)
(* Node failure and recovery                                           *)
(* ------------------------------------------------------------------ *)

(* Crash and restart touch only the node's own shard (its network
   handler, its engine's semaphore, its guardians' state), so chaos
   schedules them as events on the victim's shard.  Forwarders on other
   shards stay installed — in-flight cross-shard traffic still arrives in
   the outbox and is discarded by [deliver_body] if the node is down at
   injection time. *)
let crash_node w node_id =
  match Int_tbl.find_opt w.nodes node_id with
  | None -> invalid_arg "Runtime.crash_node: unknown node"
  | Some node ->
      if node.up then begin
        let sh = node.shard in
        node.up <- false;
        node.crash_count <- node.crash_count + 1;
        Network.clear_handler sh.snetwork node_id;
        List.iter
          (fun g ->
            let was_alive = g.galive in
            kill_guardian_volatile g;
            (* Only recoverable guardians will come back; their stable
               stores survive the crash, damaged only by their disks. *)
            if was_alive then Store.crash g.gstore)
          node.guardians;
        scount sh "node.crashed";
        stracef sh "crash" "node %d crashed" node_id
      end

let restart_node w node_id =
  match Int_tbl.find_opt w.nodes node_id with
  | None -> invalid_arg "Runtime.restart_node: unknown node"
  | Some node ->
      if not node.up then begin
        let sh = node.shard in
        node.up <- true;
        (* fresh processors: units held by processes the crash killed are
           not owed to anyone *)
        node.cpus <- Sync.semaphore sh.sengine w.config.processors_per_node;
        install_handler w node;
        scount sh "node.restarted";
        stracef sh "restart" "node %d restarted" node_id;
        List.iter
          (fun g ->
            match g.gdef.recover with
            | None -> ()  (* forgotten, per §3.5 *)
            | Some recover_proc ->
                let report = Store.recover_report g.gstore in
                let replayed = report.Store.replayed in
                if
                  report.Store.quarantined > 0 || report.Store.salvaged > 0
                  || report.Store.checkpoint_fallbacks > 0
                then begin
                  let bump name n =
                    if n > 0 then Metrics.add (Metrics.counter sh.smetrics name) n
                  in
                  bump "stable.corrupt" report.Store.quarantined;
                  bump "stable.salvaged" report.Store.salvaged;
                  bump "stable.ckpt_fallback" report.Store.checkpoint_fallbacks;
                  stracef sh "stable"
                    "guardian %s recovery damage: %d quarantined, %d salvaged, %d checkpoint fallbacks"
                    g.glabel report.Store.quarantined report.Store.salvaged
                    report.Store.checkpoint_fallbacks
                end;
                if report.Store.dropped_unflushed > 0 then
                  Metrics.add
                    (Metrics.counter sh.smetrics "stable.dropped_unflushed")
                    report.Store.dropped_unflushed;
                (* Only the birth ports (declared in the guardian header)
                   survive recovery; runtime-minted ports — conversation
                   state, like Figure 5's transaction ports — are forgotten
                   with the processes that owned them.  Stale senders get
                   failure("target port does not exist"). *)
                let births = List.length g.gdef.provides in
                g.gports <- List.filteri (fun i _ -> i < births) g.gports;
                Int_tbl.reset g.gport_index;
                List.iter
                  (fun p -> Int_tbl.replace g.gport_index (Port.name p).Port_name.uid p)
                  g.gports;
                List.iter Port.reopen g.gports;
                g.galive <- true;
                scount sh "guardian.recovered";
                stracef sh "guardian" "recovered %s (replayed %d records)" g.glabel replayed;
                let ctx = { cworld = w; cguardian = g } in
                ignore
                  (spawn_in g ~name:(g.gdef.def_name ^ ".recover") (fun () -> recover_proc ctx)))
          node.guardians
      end

(* Host-side scheduling pinned to a node's shard, for fault injectors:
   the callback runs on the shard that owns the node, so it may touch
   that node's state even in a parallel run. *)
let schedule_at w ~node ~at f =
  match Int_tbl.find_opt w.nodes node with
  | None -> invalid_arg "Runtime.schedule_at: unknown node"
  | Some n -> ignore (Engine.schedule n.shard.sengine ~at (fun () -> f ()))

(* ------------------------------------------------------------------ *)
(* Send and receive                                                    *)
(* ------------------------------------------------------------------ *)

(* After the message is encoded: trace it, flush, and hand it on. *)
let transmit w g ~now ~to_ body =
  let sh = g.home.shard in
  (* A traced world keeps the body it will deliver and makes text on
     read; an untraced one only counts the send. *)
  Trace.record_deferred sh.strace ~at:now ~category:"send" ~label:g.glabel body;
  (* Externalization barrier (write-ahead discipline): everything this
     guardian logged is flushed before any message leaves it, so a later
     crash can tear or drop only state the rest of the world has never
     observed. *)
  Store.flush g.gstore;
  dispatch w ~from:g.home ~target:to_ body

(* §3.4 step 1: encode the arguments; failures surface at the sender,
   before the send is traced or anything leaves the guardian. *)
let check_transmittable = function Ok () -> () | Error reason -> raise (Send_failed reason)

let send c ~to_ ?reply_to command args =
  let w = c.cworld in
  let g = c.cguardian in
  let sh = g.home.shard in
  if not g.galive then Metrics.incr sh.shot.m_send_dead
  else begin
    Metrics.incr sh.shot.m_send_total;
    check_transmittable (Transmit.check_all w.registry args);
    let now = Engine.now sh.sengine in
    encoded (Message.values_to_wire sh.sencoder ~target:to_ ?reply_to ~sent_at:now command args)
    |> transmit w g ~now ~to_
  end

let send_command c ~to_ ?reply_to command x =
  let w = c.cworld in
  let g = c.cguardian in
  let sh = g.home.shard in
  if not g.galive then Metrics.incr sh.shot.m_send_dead
  else begin
    Metrics.incr sh.shot.m_send_total;
    check_transmittable (Command.check_named command (Transmit.check_named w.registry) x);
    let now = Engine.now sh.sengine in
    encoded (Message.command_to_wire sh.sencoder ~target:to_ ?reply_to ~sent_at:now command x)
    |> transmit w g ~now ~to_
  end

let owned g p = (Port.name p).Port_name.guardian = g.gid
let rec owns_all g = function [] -> true | p :: rest -> owned g p && owns_all g rest

let accept c port decl =
  let g = c.cguardian in
  if not (owned g port) then invalid_arg "Runtime.accept: not this guardian's port";
  Port.declare port decl;
  let node = g.home in
  if Option.is_none node.ncommands then node.ncommands <- Some (port_commands node)

let receive c ?timeout ports =
  let g = c.cguardian in
  if not (owns_all g ports) then
    invalid_arg "Runtime.receive: can only receive on this guardian's own ports";
  (* Quiescence barrier, the dual of the send-side flush: a guardian going
     back to waiting for work has durably committed everything it did —
     including bootstrap state written before it ever sent a message.  The
     disk-fault plane may therefore tear or drop only writes made {e
     mid-request}, which no other party (or oracle model) has observed. *)
  Store.flush g.gstore;
  Port.receive g.home.shard.sengine ~ports ~timeout

let port c index =
  (* Look up by the port's own minted index, not list position: positions
     shift when a port is removed, indices never do. *)
  match
    List.find_opt (fun p -> (Port.name p).Port_name.index = index) c.cguardian.gports
  with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Runtime.port: guardian has no port %d" index)

let new_port c ?capacity ptype =
  let w = c.cworld in
  let g = c.cguardian in
  let capacity = Option.value capacity ~default:default_port_capacity in
  let index = g.next_port_index in
  g.next_port_index <- index + 1;
  let p = fresh_port w g.home ~gid:g.gid ~index ~ptype ~capacity in
  g.gports <- g.gports @ [ p ];
  Int_tbl.replace g.gport_index (Port.name p).Port_name.uid p;
  p

let remove_port c p =
  let g = c.cguardian in
  let uid = (Port.name p).Port_name.uid in
  Port.close p;
  Int_tbl.remove g.gport_index uid;
  g.gports <- List.filter (fun q -> not (Port_name.equal (Port.name q) (Port.name p))) g.gports

let spawn c ~name body = spawn_in c.cguardian ~name body
let sleep c d = Process.sleep (ctx_engine c) d

let compute c d =
  let node = c.cguardian.home in
  Sync.acquire node.cpus;
  Process.sleep node.shard.sengine d;
  (* a killed process never reaches this release; the node's crash/restart
     resets the processor pool, matching reality *)
  Sync.release node.cpus

let idle_processors w node_id =
  match Int_tbl.find_opt w.nodes node_id with
  | None -> 0
  | Some node -> Sync.available node.cpus
let store c = c.cguardian.gstore

let seal_token c ~obj =
  Token.seal ~secret:c.cguardian.secret ~owner:c.cguardian.gid ~obj

let unseal_token c token =
  Token.unseal ~secret:c.cguardian.secret ~owner:c.cguardian.gid token

let sync_mutex c = Sync.mutex (ctx_engine c)
let sync_condition c = Sync.condition (ctx_engine c)
let sync_keyed_lock c = Sync.keyed_lock (ctx_engine c)
