open Dcp_wire
module Runtime = Dcp_core.Runtime
module Message = Dcp_core.Message
module Store = Dcp_stable.Store
module Metrics = Dcp_sim.Metrics
module Clock = Dcp_sim.Clock
module Rng = Dcp_rng.Rng

let def_name = "replica"

(* The port's commands.  Requests follow the RPC convention (see {!Rpc}):
   the request id is the first argument, and of every reply. *)

let stamp_type = Command.vtype Reconcile.stamp_ty

let write_request =
  Command.make "write"
    Command.(args3 int str any)
    ~replies:[ Vtype.reply "written" [ Vtype.Tint; stamp_type ] ]

let read_request =
  Command.make "read"
    Command.(args2 int str)
    ~replies:
      [
        Vtype.reply "value" [ Vtype.Tint; Vtype.Tany; stamp_type ];
        Vtype.reply "unknown_key" [ Vtype.Tint ];
      ]

let join_request =
  Command.make "join" Command.(args2 int (list port)) ~replies:[ Vtype.reply "joined" [ Vtype.Tint ] ]

let gossip = Command.make "gossip" Command.(args3 str any Reconcile.stamp_ty)

(* Anti-entropy round: a digest covers the key window [lo, hi) (hi absent =
   unbounded); the receiver answers with sync_delta for what it holds
   newer and sync_pull for what the sender holds newer or the receiver
   lacks, or with sync_ack when the tables are equal.  Every sync message
   carries its sender's table hash, and a digest also what its sender
   believes the receiver's hash is.  Its entries travel as a run: written
   from the table's entry bytes, and compared with them on arrival. *)
let sync_digest =
  Command.make "sync_digest"
    Command.(args5 str (option str) (run Reconcile.entry_ty) str (option str))

let sync_pull = Command.make "sync_pull" Command.(args2 (list str) str)
let delta_entry = Command.(triple str any Reconcile.stamp_ty)
let sync_delta = Command.make "sync_delta" Command.(args2 (list delta_entry) str)
let sync_ack = Command.make "sync_ack" Command.(args1 str)

let commands =
  Command.(
    decl
      [
        Cmd write_request;
        Cmd read_request;
        Cmd join_request;
        Cmd gossip;
        Cmd sync_digest;
        Cmd sync_pull;
        Cmd sync_delta;
        Cmd sync_ack;
      ])

let port_type = Command.port_type commands

(* ---- metric names (shared with oracles and benches) ---- *)

let metric_malformed = "replica.malformed"
let metric_sync_msgs = "replica.sync.msgs"
let metric_sync_bytes = "replica.sync.bytes"
let metric_over_budget = "replica.sync.over_budget"
let metric_max_bytes = "replica.sync.max_bytes"
let metric_pulls = "replica.sync.pulls"
let metric_pushes = "replica.sync.pushes"
let metric_sync_acks = "replica.sync.acks"
let metric_keepalives = "replica.sync.keepalives"

type meters = {
  malformed : Metrics.counter;
  sync_msgs : Metrics.counter;
  sync_bytes : Metrics.counter;
  over_budget : Metrics.counter;
  max_bytes : Metrics.gauge;
  pulls : Metrics.counter;
  pushes : Metrics.counter;
  acks : Metrics.counter;
  keepalives : Metrics.counter;
}

let meters_of ctx =
  let reg = Runtime.ctx_metrics ctx in
  {
    malformed = Metrics.counter reg metric_malformed;
    sync_msgs = Metrics.counter reg metric_sync_msgs;
    sync_bytes = Metrics.counter reg metric_sync_bytes;
    over_budget = Metrics.counter reg metric_over_budget;
    max_bytes = Metrics.gauge reg metric_max_bytes;
    pulls = Metrics.counter reg metric_pulls;
    pushes = Metrics.counter reg metric_pushes;
    acks = Metrics.counter reg metric_sync_acks;
    keepalives = Metrics.counter reg metric_keepalives;
  }

(* ---- configuration and state ---- *)

type config = { sync_every : Clock.time; fanout : int; byte_budget : int }

let default_config =
  { sync_every = Clock.ms 500; fanout = 2; byte_budget = Reconcile.default_budget }

(* A replica that believes every peer holds its table sends one digest
   every [keepalive_periods] ticks instead of [fanout] each tick.  The
   keepalive bounds how long a belief made stale by a crash can keep two
   replicas quiet (DESIGN.md §11). *)
let keepalive_periods = 8

type state = {
  replica_id : int;
  config : config;
  table : Value.t Reconcile.table;  (** sorted by key, updated in place: the digest view *)
  mutable hash : int64;  (** {!Reconcile.table_hash} of the table, kept by [apply] *)
  mutable clock : int;
  mutable peers : Port_name.t array;  (** sorted, deduped, self excluded *)
  mutable beliefs : int64 option array;
      (** per peer, at the peer's index: the last hash it reported; volatile *)
  mutable quiet_ticks : int;  (** ticks since the last keepalive, all peers agreeing *)
  mutable cursor : string;  (** next digest window starts at this key; "" = wrap *)
  rng : Rng.t;  (** peer-selection stream, split from the world RNG *)
  m : meters;
}

let observe_stamp state (counter, _) = state.clock <- Int.max state.clock counter

let malformed state = Metrics.incr state.m.malformed

(* ---- stable-store mirror ----

   The table itself is soft state (a crashed replica rejoins empty and
   anti-entropy refills it), but its key -> stamp shape is mirrored into the
   guardian's stable store so oracles and benches can observe convergence
   from outside without extra protocol traffic — the same store-accessor
   convention the bank and airline oracles use.  Membership and the sync
   configuration are durable for real: they are what a recovered replica
   needs to rejoin the gossip mesh. *)

let mirror_prefix = "r:"
let peers_key = "peers"
let config_key = "config"

let mirror_key key = mirror_prefix ^ key

let is_mirror_key key =
  String.length key >= 2 && String.equal (String.sub key 0 2) mirror_prefix

let table_in_store store =
  List.filter_map
    (fun (key, data) ->
      if is_mirror_key key then
        Option.map
          (fun stamp -> (String.sub key 2 (String.length key - 2), stamp))
          (Reconcile.stamp_of_string data)
      else None)
    (Store.to_alist store)

let peers_in_store store =
  match Store.get store ~key:peers_key with
  | None -> []
  | Some encoded -> (
      match Codec.decode encoded with
      | Ok (Value.Listv ports) ->
          List.filter_map (fun v -> match v with Value.Portv p -> Some p | _ -> None) ports
      | Ok _ | Error _ -> [])

let persist_peers ctx peers =
  Store.set (Runtime.store ctx) ~key:peers_key
    (Codec.encode_exn (Value.list (List.map Value.port (Array.to_list peers))))

(* Duplicate-superblock discipline: the config is written under two keys so
   that losing either record to unsalvageable bit rot (a quarantined log
   record) cannot leave the replica running with default parameters — a
   budget amnesiac would gossip oversized windows. *)
let config_backup_key = "config.b"

let persist_config ctx (c : config) =
  let data = Printf.sprintf "%d %d %d" c.sync_every c.fanout c.byte_budget in
  Store.set (Runtime.store ctx) ~key:config_key data;
  Store.set (Runtime.store ctx) ~key:config_backup_key data

let parse_config data =
  match String.split_on_char ' ' data with
  | [ se; fo; bb ] -> (
      match (int_of_string_opt se, int_of_string_opt fo, int_of_string_opt bb) with
      | Some sync_every, Some fanout, Some byte_budget
        when sync_every > 0 && fanout > 0 && byte_budget > 0 ->
          Some { sync_every; fanout; byte_budget }
      | _ -> None)
  | _ -> None

let config_in_store store =
  let read key = Option.bind (Store.get store ~key) parse_config in
  match read config_key with
  | Some c -> c
  | None -> ( match read config_backup_key with Some c -> c | None -> default_config)

(* ---- applying stamped writes ---- *)

let xor_entry state key stamp =
  state.hash <- Int64.logxor state.hash (Reconcile.entry_hash (key, stamp))

(* Apply a stamped write; true if it won (newer than what we hold). *)
let apply ctx state ~key ~value ~stamp =
  observe_stamp state stamp;
  let won =
    match Reconcile.update state.table ~key ~value ~stamp with
    | Reconcile.Stale -> false
    | Added -> true
    | Replaced old ->
        xor_entry state key old;
        true
  in
  if won then begin
    xor_entry state key stamp;
    Store.set (Runtime.store ctx) ~key:(mirror_key key) (Reconcile.stamp_to_string stamp)
  end;
  won

(* ---- sync-message accounting ---- *)

(* Every sync message is sized (command + args, Codec encoding) before it is
   sent: total and per-message maxima feed the bench rows, and a message
   that still exceeds the budget — only possible when one entry alone is
   bigger than the budget — is surfaced as replica.sync.over_budget instead
   of being silently withheld. *)
let message_size command x =
  match Command.encoded_size command x with Ok n -> n | Error _ -> max_int

let note_sync_size state size =
  Metrics.incr state.m.sync_msgs;
  Metrics.add state.m.sync_bytes size;
  if size > state.config.byte_budget then Metrics.incr state.m.over_budget;
  if float_of_int size > Metrics.gauge_value state.m.max_bytes then
    Metrics.set_gauge state.m.max_bytes (float_of_int size)

let note_sync_message state command x = note_sync_size state (message_size command x)
let size_of ty x = match Command.size_of ty x with Ok n -> n | Error _ -> max_int

(* ---- fanout peer selection ---- *)

(* Deterministic from the replica's split of the world RNG: the same seed
   picks the same peers in the same ticks, which is what keeps whole-world
   sweeps bit-identical while avoiding the all-peers-every-tick blowup. *)
let choose_peers state =
  let n = Array.length state.peers in
  if n = 0 then []
  else Rng.sample_without_replacement state.rng (Int.min state.config.fanout n) n

(* ---- what a replica knows of its peers ----

   Between crashes a table only grows in stamp order, so a peer that
   reported this replica's current hash holds this replica's table (or
   more).  Beliefs are volatile: a recovering replica starts knowing
   nothing and digests every peer it draws until it has heard from it. *)

let peer_index peers port =
  let rec search lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      let c = Port_name.compare port peers.(mid) in
      if c = 0 then Some mid else if c < 0 then search lo mid else search (mid + 1) hi
  in
  search 0 (Array.length peers)

let agrees state = function Some h -> Int64.equal h state.hash | None -> false

let note_hash state ~from hash =
  Option.iter (fun i -> state.beliefs.(i) <- Some hash) (peer_index state.peers from)

(* ---- outbound sync messages ---- *)

let own_port ctx = Dcp_core.Port.name (Runtime.port ctx 0)

let send_deltas ctx state ~to_ keys =
  let entries =
    List.filter_map
      (fun key ->
        Option.map (fun (value, stamp) -> (key, value, stamp)) (Reconcile.find state.table key))
      keys
  in
  if entries <> [] then begin
    let hash = Reconcile.hash_string state.hash in
    List.iter
      (fun chunk ->
        note_sync_message state sync_delta (chunk, hash);
        Metrics.add state.m.pushes (List.length chunk);
        Runtime.send_command ctx ~to_ ~reply_to:(own_port ctx) sync_delta (chunk, hash))
      (Reconcile.chunks ~budget:state.config.byte_budget ~size:(size_of delta_entry) entries)
  end

let send_pulls ctx state ~to_ keys =
  if keys <> [] then begin
    let hash = Reconcile.hash_string state.hash in
    List.iter
      (fun chunk ->
        note_sync_message state sync_pull (chunk, hash);
        Metrics.add state.m.pulls (List.length chunk);
        Runtime.send_command ctx ~to_ ~reply_to:(own_port ctx) sync_pull (chunk, hash))
      (Reconcile.chunks ~budget:state.config.byte_budget ~size:(size_of Command.str) keys)
  end

let send_ack ctx state ~to_ =
  let hash = Reconcile.hash_string state.hash in
  note_sync_message state sync_ack hash;
  Metrics.incr state.m.acks;
  Runtime.send_command ctx ~to_ ~reply_to:(own_port ctx) sync_ack hash

(* The peers this tick digests: the drawn peers not known to hold this
   replica's hash, or, once every peer is known to, one drawn peer every
   [keepalive_periods] ticks. *)
let digest_targets state chosen =
  if Array.for_all (agrees state) state.beliefs then begin
    state.quiet_ticks <- state.quiet_ticks + 1;
    if state.quiet_ticks < keepalive_periods then []
    else begin
      state.quiet_ticks <- 0;
      Metrics.incr state.m.keepalives;
      [ List.hd chosen ]
    end
  end
  else begin
    state.quiet_ticks <- 0;
    List.filter (fun i -> not (agrees state state.beliefs.(i))) chosen
  end

(* One anti-entropy tick: draw [fanout] peers deterministically, and if any
   of them is to be digested, advance the digest cursor by one
   byte-budgeted window and offer that window to each.  Rounds with a
   non-empty remainder leave hi = Some key, so the receiver knows absence
   outside [lo, hi) means "not covered", not "not held". *)
let send_sync ctx state =
  match choose_peers state with
  | [] -> ()
  | chosen -> (
      match digest_targets state chosen with
      | [] -> ()
      | targets ->
          let lo = state.cursor in
          let run, hi =
            Reconcile.take_window ~budget:state.config.byte_budget state.table ~from:lo
          in
          state.cursor <- (match hi with None -> "" | Some key -> key);
          let hash = Reconcile.hash_string state.hash in
          (* Digests differ only in their last argument; size the window once. *)
          let size = message_size sync_digest (lo, hi, run, hash, None) in
          let believed_size = size_of Command.(option str) in
          List.iter
            (fun i ->
              let believed = Option.map Reconcile.hash_string state.beliefs.(i) in
              note_sync_size state (size + believed_size believed - believed_size None);
              Runtime.send_command ctx ~to_:state.peers.(i) ~reply_to:(own_port ctx) sync_digest
                (lo, hi, run, hash, believed))
            targets)

let broadcast_gossip ctx state ~key ~value ~stamp =
  List.iter
    (fun i -> Runtime.send_command ctx ~to_:state.peers.(i) gossip (key, value, stamp))
    (choose_peers state)

(* ---- inbound sync messages ---- *)

(* Strict parses: one malformed element poisons the whole message (dropped,
   counted), because a partially applied sync message would leave the
   protocol in a state no honest sender can produce.  The port's type has
   already checked the shapes; what is left are the values no honest
   replica sends: stamps that are not positive, hashes that are not 8
   bytes.

   An honest digest arrives strictly key-sorted and is used as it is;
   anything else is sorted and deduplicated from the reversed list, so the
   entry kept for a repeated key is the one it always was. *)
let stamp_ok (counter, origin) = counter > 0 && origin >= 0

let parse_digest_entries entries =
  let rec check ascending prev = function
    | [] -> Some ascending
    | (key, stamp) :: rest ->
        if not (stamp_ok stamp) then None
        else
          check
            (ascending && match prev with None -> true | Some p -> String.compare p key < 0)
            (Some key) rest
  in
  match check true None entries with
  | None -> None
  | Some true -> Some entries
  | Some false -> Some (List.sort_uniq Reconcile.entry_compare (List.rev entries))

let parse_delta_entries entries =
  if List.for_all (fun (_, _, stamp) -> stamp_ok stamp) entries then Some entries else None

(* A digest's guess at the receiver's hash: [Some None] when it has none,
   [None] when malformed. *)
let parse_believed = function
  | None -> Some None
  | Some s -> Option.map Option.some (Reconcile.hash_of_string s)

(* A digest whose window is byte for byte the receiver's own claims only
   entries the receiver holds: each valid, at or below its clock, and none
   to push or pull.  So the diff is empty, and the receiver only notes the
   sender's hash and acks as the diff path would.  Any other window is
   read and diffed.  A diff that finds the tables equal under equal hashes
   is answered with an ack, so the sender learns it agrees, unless the
   digest already named the receiver's hash. *)
let answer_equal ctx state ~reply ~hash ~believed =
  if Int64.equal hash state.hash && not (agrees state believed) then send_ack ctx state ~to_:reply

let handle_sync_digest ctx state ~reply ~lo ~hi ~hash ~believed run =
  let window = { Reconcile.lo; hi } in
  if not (Reconcile.window_ok window) then malformed state
  else
    match (Reconcile.hash_of_string hash, parse_believed believed) with
    | None, _ | _, None -> malformed state
    | Some hash, Some believed -> (
        if Reconcile.holds state.table window run then begin
          note_hash state ~from:reply hash;
          answer_equal ctx state ~reply ~hash ~believed
        end
        else
          match parse_digest_entries (Command.items Reconcile.entry_ty run) with
          | None -> malformed state
          | Some claimed ->
              let held = Reconcile.held_in state.table window in
              let d = Reconcile.diff ~claimed ~held in
              (* Observe the largest claimed stamp even for keys we do not
                 pull: a crash-rejoined replica must not mint write stamps
                 that lose to counters its peers have already told it
                 about. *)
              Option.iter (observe_stamp state) d.Reconcile.max_claimed;
              note_hash state ~from:reply hash;
              if d.Reconcile.pushes = [] && d.Reconcile.pulls = [] then
                answer_equal ctx state ~reply ~hash ~believed
              else begin
                send_deltas ctx state ~to_:reply d.Reconcile.pushes;
                send_pulls ctx state ~to_:reply d.Reconcile.pulls
              end)

let handle_sync_pull ctx state ~reply ~hash keys =
  match Reconcile.hash_of_string hash with
  | None -> malformed state
  | Some hash ->
      note_hash state ~from:reply hash;
      send_deltas ctx state ~to_:reply (List.sort_uniq String.compare keys)

let handle_sync_delta ctx state ~reply ~hash entries =
  match (parse_delta_entries entries, Reconcile.hash_of_string hash) with
  | None, _ | _, None -> malformed state
  | Some entries, Some hash ->
      List.iter
        (fun (key, value, stamp) -> ignore (apply ctx state ~key ~value ~stamp))
        entries;
      Option.iter (fun from -> note_hash state ~from hash) reply

let handle_sync_ack state ~reply ~hash =
  match Reconcile.hash_of_string hash with
  | None -> malformed state
  | Some hash -> Option.iter (fun from -> note_hash state ~from hash) reply

(* ---- membership ---- *)

(* Idempotent membership: union with what we already know, drop our own
   port, dedup.  A retried bootstrap join (Rpc ~attempts:5) or a peer list
   that includes the replica itself can no longer make a replica gossip to
   itself or forget peers. *)
let handle_join ctx state ports =
  let own = Dcp_core.Port.name (Runtime.port ctx 0) in
  let merged =
    Array.to_list state.peers @ ports
    |> List.filter (fun p -> not (Port_name.equal p own))
    |> List.sort_uniq Port_name.compare
    |> Array.of_list
  in
  state.beliefs <-
    Array.map (fun p -> Option.bind (peer_index state.peers p) (Array.get state.beliefs)) merged;
  state.peers <- merged;
  persist_peers ctx state.peers

(* ---- the serve loop ---- *)

let serve ctx state =
  let request_port = Runtime.port ctx 0 in
  Runtime.accept ctx request_port commands;
  (* Periodic anti-entropy, phase-staggered per replica (deterministically,
     from the same split RNG) so a large group does not tick in lockstep. *)
  ignore
    (Runtime.spawn ctx ~name:"replica.sync" (fun () ->
         Runtime.sleep ctx (Rng.int state.rng (Int.max 1 state.config.sync_every));
         let rec tick () =
           send_sync ctx state;
           Runtime.sleep ctx state.config.sync_every;
           tick ()
         in
         tick ()));
  let handlers =
    [
      Message.handle write_request (fun msg (id, key, value) ->
          state.clock <- state.clock + 1;
          let stamp = (state.clock, state.replica_id) in
          ignore (apply ctx state ~key ~value ~stamp);
          broadcast_gossip ctx state ~key ~value ~stamp;
          match msg.Message.reply_to with
          | Some reply ->
              Runtime.send ctx ~to_:reply "written" [ Value.int id; Reconcile.stamp_value stamp ]
          | None -> ());
      Message.handle read_request (fun msg (id, key) ->
          match (Reconcile.find state.table key, msg.Message.reply_to) with
          | Some (value, stamp), Some reply ->
              Runtime.send ctx ~to_:reply "value"
                [ Value.int id; value; Reconcile.stamp_value stamp ]
          | None, Some reply -> Runtime.send ctx ~to_:reply "unknown_key" [ Value.int id ]
          | _, None -> ());
      Message.handle join_request (fun msg (id, ports) ->
          handle_join ctx state ports;
          match msg.Message.reply_to with
          | Some reply -> Runtime.send ctx ~to_:reply "joined" [ Value.int id ]
          | None -> ());
      Message.handle gossip (fun _ (key, value, stamp) ->
          if stamp_ok stamp then ignore (apply ctx state ~key ~value ~stamp)
          else malformed state);
      Message.handle sync_digest (fun msg (lo, hi, run, hash, believed) ->
          match msg.Message.reply_to with
          | Some reply -> handle_sync_digest ctx state ~reply ~lo ~hi ~hash ~believed run
          | None ->
              (* digest without a return path: nothing can be pushed or
                 pulled back, so there is nothing to do *)
              ());
      Message.handle sync_pull (fun msg (keys, hash) ->
          match msg.Message.reply_to with
          | Some reply -> handle_sync_pull ctx state ~reply ~hash keys
          | None -> ());
      Message.handle sync_delta (fun msg (entries, hash) ->
          handle_sync_delta ctx state ~reply:msg.Message.reply_to ~hash entries);
      Message.handle sync_ack (fun msg hash ->
          handle_sync_ack state ~reply:msg.Message.reply_to ~hash);
      Message.handle Command.failure (fun _ _ ->
          (* system failure message for a discarded sync (dead peer, full
             port): anti-entropy retries by design *)
          ());
    ]
  in
  let rec loop () =
    (match Runtime.receive ctx [ request_port ] with
    | `Timeout -> ()
    | `Msg (_, msg) -> if not (Message.dispatch handlers msg) then malformed state);
    loop ()
  in
  loop ()

let make_state ctx ~config ~peers =
  {
    replica_id = Runtime.guardian_id (Runtime.ctx_guardian ctx);
    config;
    table = Reconcile.create ();
    hash = 0L;
    clock = 0;
    peers;
    beliefs = Array.make (Array.length peers) None;
    quiet_ticks = 0;
    cursor = "";
    rng = Rng.split (Runtime.ctx_rng ctx);
    m = meters_of ctx;
  }

(* Recovery: the table is soft state, so the stale mirror is dropped and the
   replica rejoins with whatever membership and configuration it persisted;
   anti-entropy refills the data.  (This is the "rejoin empty and let the
   protocol converge" choice — the §2.2 guardians that keep data durable are
   the bank/airline tier, not this layer.) *)
let recover ctx =
  let store = Runtime.store ctx in
  List.iter
    (fun (key, _) -> if is_mirror_key key then Store.remove store ~key)
    (Store.to_alist store);
  let peers = Array.of_list (List.sort_uniq Port_name.compare (peers_in_store store)) in
  serve ctx (make_state ctx ~config:(config_in_store store) ~peers)

let def : Runtime.def =
  {
    Runtime.def_name;
    provides = [ (port_type, 512) ];
    init =
      (fun ctx args ->
        match args with
        | [ Value.Int sync_every; Value.Int fanout; Value.Int byte_budget ]
          when sync_every > 0 && fanout > 0 && byte_budget > 0 ->
            let config = { sync_every; fanout; byte_budget } in
            persist_config ctx config;
            serve ctx (make_state ctx ~config ~peers:[||])
        | _ -> invalid_arg "replica: bad creation arguments");
    recover = Some recover;
  }

let create_group world ~nodes ?(sync_every = Clock.ms 500) ?(fanout = 2)
    ?(byte_budget = Reconcile.default_budget) () =
  if fanout <= 0 then invalid_arg "Replica.create_group: fanout must be positive";
  if byte_budget <= 0 then invalid_arg "Replica.create_group: byte_budget must be positive";
  if Runtime.find_def world def_name = None then Runtime.register_def world def;
  let args = [ Value.int sync_every; Value.int fanout; Value.int byte_budget ] in
  let replicas =
    List.map
      (fun at ->
        let g = Runtime.create_guardian world ~at ~def_name ~args in
        List.hd (Runtime.guardian_ports g))
      nodes
  in
  (* Introduce everyone to everyone else through a bootstrap guardian. *)
  let bootstrap : Runtime.def =
    {
      Runtime.def_name = "replica_bootstrap";
      provides = [];
      init =
        (fun ctx _ ->
          List.iter
            (fun replica ->
              let peers = List.filter (fun p -> not (Port_name.equal p replica)) replicas in
              match
                Rpc.call ctx ~to_:replica ~timeout:(Clock.s 1) ~attempts:5 "join"
                  [ Value.list (List.map Value.port peers) ]
              with
              | Rpc.Reply ("joined", _) -> ()
              | Rpc.Reply _ | Rpc.Failure_msg _ | Rpc.Timeout -> ())
            replicas);
      recover = None;
    }
  in
  if Runtime.find_def world "replica_bootstrap" = None then Runtime.register_def world bootstrap;
  (match nodes with
  | at :: _ -> ignore (Runtime.create_guardian world ~at ~def_name:"replica_bootstrap" ~args:[])
  | [] -> invalid_arg "Replica.create_group: need at least one node");
  replicas

let write ctx ~replica ~key ~value ~timeout =
  match Rpc.call ctx ~to_:replica ~timeout ~attempts:3 "write" [ Value.str key; value ] with
  | Rpc.Reply ("written", _) -> true
  | Rpc.Reply _ | Rpc.Failure_msg _ | Rpc.Timeout -> false

let read ctx ~replica ~key ~timeout =
  match Rpc.call ctx ~to_:replica ~timeout ~attempts:3 "read" [ Value.str key ] with
  | Rpc.Reply ("value", [ value; _ ]) -> Some value
  | Rpc.Reply _ | Rpc.Failure_msg _ | Rpc.Timeout -> None
