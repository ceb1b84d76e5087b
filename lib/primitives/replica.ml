open Dcp_wire
module Runtime = Dcp_core.Runtime
module Message = Dcp_core.Message
module Store = Dcp_stable.Store
module Metrics = Dcp_sim.Metrics
module Clock = Dcp_sim.Clock
module Rng = Dcp_rng.Rng

let def_name = "replica"

let stamp_type = Vtype.Ttuple [ Vtype.Tint; Vtype.Tint ]
let digest_entry_type = Vtype.Ttuple [ Vtype.Tstr; stamp_type ]
let delta_entry_type = Vtype.Ttuple [ Vtype.Tstr; Vtype.Tany; stamp_type ]

let port_type =
  [
    Rpc.request_signature "write" [ Vtype.Tstr; Vtype.Tany ]
      ~replies:[ Vtype.reply "written" [ stamp_type ] ];
    Rpc.request_signature "read" [ Vtype.Tstr ]
      ~replies:[ Vtype.reply "value" [ Vtype.Tany; stamp_type ]; Vtype.reply "unknown_key" [] ];
    Rpc.request_signature "join" [ Vtype.Tlist Vtype.Tport ]
      ~replies:[ Vtype.reply "joined" [] ];
    Vtype.signature "gossip" [ Vtype.Tstr; Vtype.Tany; stamp_type ];
    (* Anti-entropy round: a digest covers the key window [lo, hi) (hi
       absent = unbounded); the receiver answers with sync_delta for what it
       holds newer and sync_pull for what the sender holds newer or the
       receiver lacks. *)
    Vtype.signature "sync_digest"
      [ Vtype.Tstr; Vtype.Toption Vtype.Tstr; Vtype.Tlist digest_entry_type ];
    Vtype.signature "sync_pull" [ Vtype.Tlist Vtype.Tstr ];
    Vtype.signature "sync_delta" [ Vtype.Tlist delta_entry_type ];
  ]

(* ---- metric names (shared with oracles and benches) ---- *)

let metric_malformed = "replica.malformed"
let metric_sync_msgs = "replica.sync.msgs"
let metric_sync_bytes = "replica.sync.bytes"
let metric_over_budget = "replica.sync.over_budget"
let metric_max_bytes = "replica.sync.max_bytes"
let metric_pulls = "replica.sync.pulls"
let metric_pushes = "replica.sync.pushes"

type meters = {
  malformed : Metrics.counter;
  sync_msgs : Metrics.counter;
  sync_bytes : Metrics.counter;
  over_budget : Metrics.counter;
  max_bytes : Metrics.gauge;
  pulls : Metrics.counter;
  pushes : Metrics.counter;
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
  }

(* ---- configuration and state ---- *)

type config = { sync_every : Clock.time; fanout : int; byte_budget : int }

let default_config =
  { sync_every = Clock.ms 500; fanout = 2; byte_budget = Reconcile.default_budget }

type state = {
  replica_id : int;
  config : config;
  table : (string, Value.t * Reconcile.stamp) Hashtbl.t;
  mutable clock : int;
  mutable peers : Port_name.t array;  (** sorted, deduped, self excluded *)
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

(* Apply a stamped write; true if it won (newer than what we hold). *)
let apply ctx state ~key ~value ~stamp =
  observe_stamp state stamp;
  match Hashtbl.find_opt state.table key with
  | Some (_, existing) when Reconcile.stamp_compare existing stamp >= 0 -> false
  | Some _ | None ->
      Hashtbl.replace state.table key (value, stamp);
      Store.set (Runtime.store ctx) ~key:(mirror_key key) (Reconcile.stamp_to_string stamp);
      true

let sorted_entries state =
  Hashtbl.fold (fun key (_, stamp) acc -> (key, stamp) :: acc) state.table []
  |> List.sort Reconcile.entry_compare

(* ---- sync-message accounting ---- *)

(* Every sync message is sized (command + args, Codec encoding) before it is
   sent: total and per-message maxima feed the bench rows, and a message
   that still exceeds the budget — only possible when one entry alone is
   bigger than the budget — is surfaced as replica.sync.over_budget instead
   of being silently withheld. *)
let note_sync_message state ~command args =
  let size = Reconcile.value_size (Value.tuple (Value.str command :: args)) in
  Metrics.incr state.m.sync_msgs;
  Metrics.add state.m.sync_bytes size;
  if size > state.config.byte_budget then Metrics.incr state.m.over_budget;
  if float_of_int size > Metrics.gauge_value state.m.max_bytes then
    Metrics.set_gauge state.m.max_bytes (float_of_int size)

let digest_entry_size entry = Reconcile.value_size (Reconcile.entry_value entry)
let pull_entry_size key = Reconcile.value_size (Value.str key)

let delta_value (key, value, stamp) =
  Value.tuple [ Value.str key; value; Reconcile.stamp_value stamp ]

let delta_entry_size entry = Reconcile.value_size (delta_value entry)

(* ---- fanout peer selection ---- *)

(* Deterministic from the replica's split of the world RNG: the same seed
   picks the same peers in the same ticks, which is what keeps whole-world
   sweeps bit-identical while avoiding the all-peers-every-tick blowup. *)
let choose_peers state =
  let n = Array.length state.peers in
  if n = 0 then []
  else
    let k = Int.min state.config.fanout n in
    List.map (fun i -> state.peers.(i)) (Rng.sample_without_replacement state.rng k n)

(* ---- outbound sync messages ---- *)

let send_deltas ctx state ~to_ keys =
  let entries =
    List.filter_map
      (fun key ->
        match Hashtbl.find_opt state.table key with
        | Some (value, stamp) -> Some (key, value, stamp)
        | None -> None)
      keys
  in
  if entries <> [] then
    List.iter
      (fun chunk ->
        let args = [ Value.list (List.map delta_value chunk) ] in
        note_sync_message state ~command:"sync_delta" args;
        Metrics.add state.m.pushes (List.length chunk);
        Runtime.send ctx ~to_ "sync_delta" args)
      (Reconcile.chunks ~budget:state.config.byte_budget ~size:delta_entry_size entries)

let send_pulls ctx state ~to_ keys =
  if keys <> [] then begin
    let own = Dcp_core.Port.name (Runtime.port ctx 0) in
    List.iter
      (fun chunk ->
        let args = [ Value.list (List.map Value.str chunk) ] in
        note_sync_message state ~command:"sync_pull" args;
        Metrics.add state.m.pulls (List.length chunk);
        Runtime.send ctx ~to_ ~reply_to:own "sync_pull" args)
      (Reconcile.chunks ~budget:state.config.byte_budget ~size:pull_entry_size keys)
  end

(* One anti-entropy tick: advance the digest cursor by one byte-budgeted
   window and offer that window to [fanout] deterministically chosen peers.
   Rounds with a non-empty remainder leave hi = Some key, so the receiver
   knows absence outside [lo, hi) means "not covered", not "not held". *)
let send_sync ctx state =
  match choose_peers state with
  | [] -> ()
  | chosen ->
      let from_cursor =
        List.filter
          (fun (key, _) -> String.compare state.cursor key <= 0)
          (sorted_entries state)
      in
      let taken, rest =
        Reconcile.take_within ~budget:state.config.byte_budget ~size:digest_entry_size
          from_cursor
      in
      let lo = state.cursor in
      let hi = match rest with [] -> None | (key, _) :: _ -> Some key in
      state.cursor <- (match hi with None -> "" | Some key -> key);
      let args =
        [
          Value.str lo;
          Value.option (Option.map Value.str hi);
          Value.list (List.map Reconcile.entry_value taken);
        ]
      in
      let own = Dcp_core.Port.name (Runtime.port ctx 0) in
      List.iter
        (fun peer ->
          note_sync_message state ~command:"sync_digest" args;
          Runtime.send ctx ~to_:peer ~reply_to:own "sync_digest" args)
        chosen

let broadcast_gossip ctx state ~key ~value ~stamp =
  List.iter
    (fun peer ->
      Runtime.send ctx ~to_:peer "gossip"
        [ Value.str key; value; Reconcile.stamp_value stamp ])
    (choose_peers state)

(* ---- inbound sync messages ---- *)

(* Strict parses: one malformed element poisons the whole message (dropped,
   counted), because a partially applied sync message would leave the
   protocol in a state no honest sender can produce. *)
let parse_digest_entries entries =
  List.fold_left
    (fun acc v ->
      match (acc, Reconcile.entry_of_value v) with
      | Some parsed, Some entry -> Some (entry :: parsed)
      | _, _ -> None)
    (Some []) entries
  |> Option.map (List.sort_uniq Reconcile.entry_compare)

let parse_delta_entries entries =
  List.fold_left
    (fun acc v ->
      match acc with
      | None -> None
      | Some parsed -> (
          match v with
          | Value.Tuple [ Value.Str key; value; stamp ] ->
              Option.map (fun s -> (key, value, s) :: parsed) (Reconcile.stamp_of_value stamp)
          | _ -> None))
    (Some []) entries
  |> Option.map List.rev

let parse_pull_keys keys =
  List.fold_left
    (fun acc v ->
      match (acc, v) with
      | Some parsed, Value.Str key -> Some (key :: parsed)
      | _, _ -> None)
    (Some []) keys
  |> Option.map (List.sort_uniq String.compare)

let handle_sync_digest ctx state ~reply ~lo ~hi entries =
  let window = { Reconcile.lo; hi } in
  if not (Reconcile.window_ok window) then malformed state
  else
    match parse_digest_entries entries with
    | None -> malformed state
    | Some claimed ->
        let held =
          List.filter (fun (key, _) -> Reconcile.in_window window key) (sorted_entries state)
        in
        let d = Reconcile.diff ~claimed ~held in
        (* Observe the largest claimed stamp even for keys we do not pull:
           a crash-rejoined replica must not mint write stamps that lose to
           counters its peers have already told it about. *)
        Option.iter (observe_stamp state) d.Reconcile.max_claimed;
        send_deltas ctx state ~to_:reply d.Reconcile.pushes;
        send_pulls ctx state ~to_:reply d.Reconcile.pulls

let handle_sync_pull ctx state ~reply keys =
  match parse_pull_keys keys with
  | None -> malformed state
  | Some keys -> send_deltas ctx state ~to_:reply keys

let handle_sync_delta ctx state entries =
  match parse_delta_entries entries with
  | None -> malformed state
  | Some entries ->
      List.iter
        (fun (key, value, stamp) -> ignore (apply ctx state ~key ~value ~stamp))
        entries

(* ---- membership ---- *)

let parse_join_peers values =
  List.fold_left
    (fun acc v ->
      match (acc, v) with
      | Some parsed, Value.Portv p -> Some (p :: parsed)
      | _, _ -> None)
    (Some []) values

(* Idempotent membership: union with what we already know, drop our own
   port, dedup.  A retried bootstrap join (Rpc ~attempts:5) or a peer list
   that includes the replica itself can no longer make a replica gossip to
   itself or forget peers. *)
let handle_join ctx state values =
  match parse_join_peers values with
  | None ->
      malformed state;
      false
  | Some ports ->
      let own = Dcp_core.Port.name (Runtime.port ctx 0) in
      let merged =
        Array.to_list state.peers @ ports
        |> List.filter (fun p -> not (Port_name.equal p own))
        |> List.sort_uniq Port_name.compare
      in
      state.peers <- Array.of_list merged;
      persist_peers ctx state.peers;
      true

(* ---- the serve loop ---- *)

let serve ctx state =
  let request_port = Runtime.port ctx 0 in
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
  let rec loop () =
    (match Runtime.receive ctx [ request_port ] with
    | `Timeout -> ()
    | `Msg (_, msg) -> (
        match (msg.Message.command, msg.Message.args) with
        | "write", [ Value.Int id; Value.Str key; value ] ->
            state.clock <- state.clock + 1;
            let stamp = (state.clock, state.replica_id) in
            ignore (apply ctx state ~key ~value ~stamp);
            broadcast_gossip ctx state ~key ~value ~stamp;
            (match msg.Message.reply_to with
            | Some reply ->
                Runtime.send ctx ~to_:reply "written"
                  [ Value.int id; Reconcile.stamp_value stamp ]
            | None -> ())
        | "read", [ Value.Int id; Value.Str key ] -> (
            match (Hashtbl.find_opt state.table key, msg.Message.reply_to) with
            | Some (value, stamp), Some reply ->
                Runtime.send ctx ~to_:reply "value"
                  [ Value.int id; value; Reconcile.stamp_value stamp ]
            | None, Some reply -> Runtime.send ctx ~to_:reply "unknown_key" [ Value.int id ]
            | _, None -> ())
        | "join", [ Value.Int id; Value.Listv peer_values ] -> (
            match (handle_join ctx state peer_values, msg.Message.reply_to) with
            | true, Some reply -> Runtime.send ctx ~to_:reply "joined" [ Value.int id ]
            | false, Some reply ->
                (* A malformed peer list used to be dropped silently, leaving
                   the joining side to burn its full timeout x attempts budget
                   on a request that can never succeed; fail fast instead. *)
                Runtime.send ctx ~to_:reply "failure" [ Value.str "join: malformed peer list" ]
            | _, None -> ())
        | "gossip", [ Value.Str key; value; stamp ] -> (
            match Reconcile.stamp_of_value stamp with
            | None -> malformed state
            | Some stamp -> ignore (apply ctx state ~key ~value ~stamp))
        | "sync_digest", [ Value.Str lo; Value.Option hi; Value.Listv entries ] -> (
            match (hi, msg.Message.reply_to) with
            | Some (Value.Str _), Some reply | None, Some reply ->
                let hi = match hi with Some (Value.Str h) -> Some h | _ -> None in
                handle_sync_digest ctx state ~reply ~lo ~hi entries
            | _, Some _ -> malformed state
            | _, None ->
                (* digest without a return path: nothing can be pushed or
                   pulled back, so there is nothing to do *)
                ())
        | "sync_pull", [ Value.Listv keys ] -> (
            match msg.Message.reply_to with
            | Some reply -> handle_sync_pull ctx state ~reply keys
            | None -> ())
        | "sync_delta", [ Value.Listv entries ] -> handle_sync_delta ctx state entries
        | "failure", _ ->
            (* system failure message for a discarded sync (dead peer,
               full port): anti-entropy retries by design *)
            ()
        | _ -> malformed state));
    loop ()
  in
  loop ()

let make_state ctx ~config ~peers =
  {
    replica_id = Runtime.guardian_id (Runtime.ctx_guardian ctx);
    config;
    table = Hashtbl.create 32;
    clock = 0;
    peers;
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
