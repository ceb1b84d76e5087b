open Dcp_wire
module Runtime = Dcp_core.Runtime
module Rpc = Dcp_primitives.Rpc
module Branch = Dcp_bank.Branch
module Transfer = Dcp_bank.Transfer
module Flight = Dcp_airline.Flight
module Itinerary = Dcp_airline.Itinerary
module Cluster = Dcp_airline.Cluster
module Workload = Dcp_airline.Workload
module Clock = Dcp_sim.Clock
module Engine = Dcp_sim.Engine
module Network = Dcp_net.Network
module Topology = Dcp_net.Topology
module Rng = Dcp_rng.Rng

(* The crash schedule draws from its own root, derived from the scenario
   seed, so fault timing is independent of the workload stream but still a
   pure function of the seed. *)
let chaos_rng seed = Rng.create ~seed:(seed lxor 0x2545F4914F6CDD1D)

(* Shared world config, for every scenario: the checker injects damage
   through the profile's disk axis.  Checkpointing is only enabled
   alongside the disk injector — on perfect disks it would change store
   internals without changing behaviour, perturbing nothing but costing
   time. *)
let checkpoint_every = 100

let scenario_config (profile : Profile.t) =
  {
    Runtime.default_config with
    disk = profile.Profile.disk;
    checkpoint_every =
      (if Option.is_none profile.Profile.disk then None else Some checkpoint_every);
  }

(* Event and network counters, summed across shards. *)
let world_fingerprint world extra =
  let net = Runtime.network_stats world in
  Printf.sprintf "ev=%d sent=%d lost=%d%s" (Runtime.events_executed world)
    net.Network.messages_sent net.Network.fragments_lost extra

let verdict_of oracles world =
  match Oracle.check_all oracles world with
  | Ok () -> Scenario.Pass
  | Error reason -> Scenario.Fail reason

(* Disk-fault plane counters, appended to every scenario's stats: sweeps
   under a [+disk] profile use them as evidence that damage actually
   happened (a sweep that never salvaged or quarantined anything would
   vacuously pass). *)
let stable_stats world =
  let metric name =
    Dcp_sim.Metrics.count (Dcp_sim.Metrics.counter (Runtime.metrics world) name)
  in
  [
    ("stable_salvaged", metric "stable.salvaged");
    ("stable_quarantined", metric "stable.corrupt");
    ("stable_ckpt_fallbacks", metric "stable.ckpt_fallback");
    ("stable_dropped_unflushed", metric "stable.dropped_unflushed");
  ]

(* ---- bank: transfer sagas vs the sequential reference model ---- *)

let bank_accounts prefix = List.init 3 (fun i -> (Printf.sprintf "%s%d" prefix i, 500))

let bank_initial =
  List.concat_map
    (fun (branch, prefix) -> List.map (fun (a, v) -> (branch, a, v)) (bank_accounts prefix))
    [ (0, "a"); (1, "b") ]

let run_bank ~model_skips (params : Scenario.params) =
  let profile = params.profile in
  let config = scenario_config profile in
  let world =
    Runtime.create_world ~seed:params.seed
      ~topology:(Topology.full_mesh ~n:4 profile.Profile.link)
      ~config ~shards:params.shards ~parallel:params.parallel ()
  in
  let b0 = Branch.create world ~at:0 ~accounts:(bank_accounts "a") () in
  let b1 = Branch.create world ~at:1 ~accounts:(bank_accounts "b") () in
  let coordinator = Transfer.create world ~at:2 ~branches:[ b0; b1 ] () in
  let ledger = ref [] in
  let gap = Int.max (Clock.ms 5) (params.horizon / Int.max 1 params.workload) in
  Chaos.driver world ~at:3 ~name:"check_bank_driver" (fun ctx ->
      let rng = Rng.split (Runtime.ctx_rng ctx) in
      for i = 1 to params.workload do
        let tid = 4_000_000_000 + i in
        let forward = i mod 2 = 0 in
        let from_branch, to_branch = if forward then (0, 1) else (1, 0) in
        let prefix b = if b = 0 then "a" else "b" in
        let from_account = Printf.sprintf "%s%d" (prefix from_branch) (Rng.int rng 3) in
        let to_account = Printf.sprintf "%s%d" (prefix to_branch) (Rng.int rng 3) in
        let amount = 1 + Rng.int rng 40 in
        let entry =
          { Oracle.tid; from_branch; from_account; to_branch; to_account; amount; observed = "pending" }
        in
        ledger := entry :: !ledger;
        (match
           Rpc.call ctx ~to_:coordinator ~timeout:(Clock.s 2) ~attempts:3 ~request_id:tid
             "transfer"
             [
               Value.int from_branch;
               Value.str from_account;
               Value.int to_branch;
               Value.str to_account;
               Value.int amount;
             ]
         with
        | Rpc.Reply (command, _) -> entry.Oracle.observed <- command
        | Rpc.Failure_msg _ -> entry.Oracle.observed <- "failure"
        | Rpc.Timeout -> entry.Oracle.observed <- "timeout");
        Runtime.sleep ctx (gap + Rng.int rng (Int.max 1 (gap / 2)))
      done);
  Chaos.schedule_crashes world ~rng:(chaos_rng params.seed) ~profile ~nodes:[ 0; 1; 2 ]
    ~horizon:params.horizon;
  (* Settle bound: per transfer the driver blocks at most attempts×timeout
     plus pacing, and a parked deposit retries across outages; virtual
     time is free, so be generous. *)
  let settle = Clock.s 120 + (params.workload * Clock.s 8) in
  Runtime.run_for world (params.horizon + settle);
  let count outcome =
    List.length (List.filter (fun e -> String.equal e.Oracle.observed outcome) !ledger)
  in
  let ok = count "ok" and timeouts = count "timeout" in
  let verdict =
    if List.length !ledger < params.workload then
      Scenario.Fail
        (Printf.sprintf "driver issued only %d of %d transfers" (List.length !ledger)
           params.workload)
    else
      verdict_of
        [
          Oracle.bank_quiescent;
          Oracle.bank_conservation ~expected_total:3000;
          Oracle.bank_model ~initial:bank_initial ~ledger ~model_skips ();
          Oracle.stable_durability;
        ]
        world
  in
  {
    Scenario.verdict;
    fingerprint = world_fingerprint world (Printf.sprintf " ok=%d to=%d" ok timeouts);
    stats =
      [
        ("transfers_ok", ok);
        ("transfers_timeout", timeouts);
        ("events", Runtime.events_executed world);
      ]
      @ stable_stats world;
  }

let bank =
  {
    Scenario.name = "bank";
    descr = "cross-branch transfer sagas vs a sequential reference model";
    default_horizon = Clock.s 4;
    default_workload = 30;
    run = run_bank ~model_skips:0;
  }

let bank_mutated =
  {
    Scenario.name = "bank_mutated";
    descr = "bank with a model that ignores the first transfer (harness self-test; must fail)";
    default_horizon = Clock.s 4;
    default_workload = 30;
    run = run_bank ~model_skips:1;
  }

(* ---- airline: Figure-2 cluster under churn ---- *)

let airline_capacity = 5
let airline_waitlist = 10

let run_airline (params : Scenario.params) =
  let profile = params.profile in
  let cluster_params =
    {
      Cluster.default_params with
      regions = 3;
      flights_per_region = 2;
      capacity = airline_capacity;
      clerks_per_region = Int.max 1 params.workload;
      seed = params.seed;
      inter_node = profile.Profile.link;
      config = scenario_config profile;
      clerk =
        {
          Workload.default_config with
          transactions = 0;
          requests_per_transaction = 4;
          think_time = Clock.ms 5;
          dates = 4;
          reserve_fraction = 0.7;
          undo_fraction = 0.1;
          request_timeout = Clock.ms 300;
          attempts = 3;
        };
    }
  in
  let cluster = Cluster.build cluster_params in
  let world = cluster.Cluster.world in
  Chaos.schedule_crashes world ~rng:(chaos_rng params.seed) ~profile ~nodes:[ 0; 1; 2 ]
    ~horizon:params.horizon;
  let report = Cluster.run cluster ~duration:(params.horizon + Clock.s 10) in
  let verdict =
    verdict_of
      [
        Oracle.airline_seat_ledger ~capacity:airline_capacity ~waitlist_capacity:airline_waitlist;
        Oracle.stable_durability;
      ]
      world
  in
  {
    Scenario.verdict;
    fingerprint =
      world_fingerprint world
        (Printf.sprintf " ok=%d failed=%d tx=%d" report.Cluster.requests_ok
           report.Cluster.requests_failed report.Cluster.transactions_completed);
    stats =
      [
        ("requests_ok", report.Cluster.requests_ok);
        ("requests_failed", report.Cluster.requests_failed);
        ("transactions_completed", report.Cluster.transactions_completed);
        ("events", Runtime.events_executed world);
      ]
      @ stable_stats world;
  }

let airline =
  {
    Scenario.name = "airline";
    descr = "Figure-2 airline cluster under clerk load; seat-ledger invariants";
    default_horizon = Clock.s 40;
    default_workload = 2;  (* clerks per region *)
    run = run_airline;
  }

(* ---- itinerary: two-leg 2PC bookings ---- *)

let run_itinerary (params : Scenario.params) =
  let profile = params.profile in
  let config = scenario_config profile in
  let world =
    Runtime.create_world ~seed:params.seed
      ~topology:(Topology.full_mesh ~n:4 profile.Profile.link)
      ~config ~shards:params.shards ~parallel:params.parallel ()
  in
  let f1 = Flight.create world ~at:0 ~flight:1 ~capacity:6 ~service_time:(Clock.us 100) () in
  let f2 = Flight.create world ~at:1 ~flight:2 ~capacity:6 ~service_time:(Clock.us 100) () in
  let itinerary = Itinerary.create world ~at:2 ~directory:[ (1, f1); (2, f2) ] () in
  let outcomes = ref [] in
  for i = 1 to params.workload do
    Chaos.driver world ~at:3 ~name:(Printf.sprintf "check_trip_driver_%d" i) (fun ctx ->
        let passenger = Printf.sprintf "px%d" i in
        let legs =
          Value.list
            [
              Value.tuple [ Value.int 1; Value.int (i mod 3) ];
              Value.tuple [ Value.int 2; Value.int (i mod 3) ];
            ]
        in
        (* Retry with the SAME request id so participant/coordinator logs
           keep retried attempts idempotent across crashes. *)
        let rid = 4_000_000_000 + i in
        let rec attempt tries =
          match
            Rpc.call ctx ~to_:itinerary ~timeout:(Clock.s 3) ~request_id:rid "book_trip"
              [ Value.str passenger; legs ]
          with
          | Rpc.Reply (command, _) -> outcomes := (passenger, command) :: !outcomes
          | Rpc.Failure_msg _ | Rpc.Timeout ->
              if tries > 1 then begin
                Runtime.sleep ctx (Clock.ms 500);
                attempt (tries - 1)
              end
              else outcomes := (passenger, "gave_up") :: !outcomes
        in
        attempt 4)
  done;
  Chaos.schedule_crashes world ~rng:(chaos_rng params.seed) ~profile ~nodes:[ 0; 1; 2 ]
    ~horizon:params.horizon;
  let settle = Clock.s 120 + (params.workload * Clock.s 15) in
  Runtime.run_for world (params.horizon + settle);
  let booked =
    List.length (List.filter (fun (_, o) -> String.equal o "booked") !outcomes)
  in
  let verdict =
    verdict_of [ Oracle.itinerary_atomicity ~outcomes; Oracle.stable_durability ] world
  in
  {
    Scenario.verdict;
    fingerprint = world_fingerprint world (Printf.sprintf " booked=%d" booked);
    stats =
      [
        ("booked", booked);
        ("outcomes", List.length !outcomes);
        ("events", Runtime.events_executed world);
      ]
      @ stable_stats world;
  }

let itinerary =
  {
    Scenario.name = "itinerary";
    descr = "two-leg 2PC bookings under churn; all-or-nothing atomicity";
    default_horizon = Clock.s 3;
    default_workload = 12;
    run = run_itinerary;
  }

(* ---- replica: anti-entropy gossip convergence at scale ---- *)

module Replica = Dcp_primitives.Replica
module Metrics = Dcp_sim.Metrics
module Store = Dcp_stable.Store

let replica_sync_every = Clock.ms 250
let replica_fanout = 2

(* Small enough that the workload's table needs several digest windows, so
   the sweep exercises cursor continuation, not just single-window sync. *)
let replica_budget = 2048

(* Quiescence probe: step virtual time in 250 ms steps until [ready]
   holds.  The virtual time elapsed past the fault horizon when it first
   holds is the convergence-time measurement, -1 if it never does within
   [max_steps].  Only a yes/no is needed, so [ready] may stop at its first
   failing condition. *)
let probe_convergence world ~ready ~max_steps ~horizon =
  let step = Clock.ms 250 in
  let rec probe i =
    if ready () then (Runtime.now world - horizon) / Clock.ms 1
    else if i >= max_steps then -1
    else begin
      Runtime.run_for world step;
      probe (i + 1)
    end
  in
  probe 0

let run_replica ~replicas:n (params : Scenario.params) =
  let profile = params.profile in
  let config = scenario_config profile in
  let world =
    Runtime.create_world ~seed:params.seed
      ~topology:(Topology.full_mesh ~n:(n + 1) profile.Profile.link)
      ~config ~shards:params.shards ~parallel:params.parallel ()
  in
  let nodes = List.init n Fun.id in
  let ports =
    Array.of_list
      (Replica.create_group world ~nodes ~sync_every:replica_sync_every
         ~fanout:replica_fanout ~byte_budget:replica_budget ())
  in
  let written = ref 0 and issued = ref 0 in
  let gap = Int.max (Clock.ms 2) (params.horizon / Int.max 1 params.workload) in
  Chaos.driver world ~at:n ~name:"check_replica_driver" (fun ctx ->
      let rng = Rng.split (Runtime.ctx_rng ctx) in
      Runtime.sleep ctx (Clock.ms 100);
      for i = 1 to params.workload do
        let key = Printf.sprintf "key%04d" i in
        let replica = ports.(Rng.int rng n) in
        if Replica.write ctx ~replica ~key ~value:(Value.int i) ~timeout:(Clock.ms 500) then
          incr written;
        incr issued;
        Runtime.sleep ctx (gap + Rng.int rng (Int.max 1 (gap / 2)))
      done);
  Chaos.schedule_crashes world ~rng:(chaos_rng params.seed) ~profile ~nodes
    ~horizon:params.horizon;
  Runtime.run_for world (params.horizon + Clock.s 5);
  (* Pacing and RPC waits can carry the driver well past the horizon, so
     the probe first waits for its last write, acknowledged or not.  From
     then on the workload has stopped, and LWW tables are monotone in
     stamp order, so once equal they stay equal. *)
  let convergence_ms =
    probe_convergence world ~max_steps:400 ~horizon:params.horizon ~ready:(fun () ->
        !issued = params.workload && Result.is_ok (Oracle.replica_convergence.Oracle.check world))
  in
  let keys =
    match Runtime.find_guardians world ~def_name:Replica.def_name with
    | [] -> 0
    | g :: _ -> List.length (Replica.table_in_store (Runtime.guardian_store g))
  in
  let metric name = Metrics.count (Metrics.counter (Runtime.metrics world) name) in
  let sync_msgs = metric Replica.metric_sync_msgs in
  let sync_bytes = metric Replica.metric_sync_bytes in
  let verdict =
    if !issued < params.workload then
      Scenario.Fail (Printf.sprintf "driver issued only %d of %d writes" !issued params.workload)
    else if !written = 0 then Scenario.Fail "no write was acknowledged"
    else
      verdict_of
        [
          Oracle.replica_convergence;
          Oracle.replica_sync_budget ~budget:replica_budget;
          Oracle.stable_durability;
        ]
        world
  in
  {
    Scenario.verdict;
    fingerprint =
      world_fingerprint world
        (Printf.sprintf " keys=%d conv=%d sync=%d" keys convergence_ms sync_bytes);
    stats =
      [
        ("keys", keys);
        ("issued", !issued);
        ("written", !written);
        ("convergence_ms", convergence_ms);
        ("sync_msgs", sync_msgs);
        ("sync_bytes", sync_bytes);
        ("sync_acks", metric Replica.metric_sync_acks);
        ("keepalives", metric Replica.metric_keepalives);
        ("malformed", metric Replica.metric_malformed);
        ("events", Runtime.events_executed world);
      ]
      @ stable_stats world;
  }

let replica =
  {
    Scenario.name = "replica";
    descr = "100-replica anti-entropy gossip; convergence and sync byte budget";
    default_horizon = Clock.s 8;
    default_workload = 150;
    run = run_replica ~replicas:100;
  }

let replica_1k =
  {
    Scenario.name = "replica_1k";
    descr = "1000-replica anti-entropy gossip (scale probe; not in the default sweep)";
    default_horizon = Clock.s 6;
    default_workload = 200;
    run = run_replica ~replicas:1000;
  }

(* ---- register / snapshot: SCD-broadcast atomic objects ---- *)

module Register = Dcp_primitives.Register
module Snapshot = Dcp_primitives.Snapshot
module Scd = Dcp_primitives.Scd

let register_op_timeout = Clock.ms 1500

(* Spread [workload] operations over [clients] drivers. *)
let split_workload ~clients workload =
  List.init clients (fun i -> (workload / clients) + if i < workload mod clients then 1 else 0)

type op_counts = {
  mutable ok : int;  (** completed with a reply *)
  mutable unknown : int;  (** timed out: effect unknown, recorded pending *)
  mutable no_effect : int;  (** refused/failed before execution: not recorded *)
}

(* One history-recording client: every completed or timed-out operation
   goes into the driver's own stable store ({!Linearize.record}), making
   the linearizability oracle a pure function of the finished world.
   Calls are single-attempt — a retry would re-execute under the same rid
   (answered from the durable request record, fine) but a {e fresh} rid
   would re-broadcast the write and break the history; timeout means
   "pending", never "retry". *)
let run_client ctx ~counts ~rng ~ports ~keys ~write_pct ~use_snapshots ~idx ~count ~gap =
  let members = Array.length ports in
  let recorded = ref 0 in
  let record event =
    Linearize.record ctx ~seq:!recorded event;
    incr recorded
  in
  Runtime.sleep ctx (Clock.ms 120);
  for i = 1 to count do
    let member = ports.(Rng.int rng members) in
    let key = Printf.sprintf "x%d" (Rng.int rng keys) in
    let value = (idx * 1_000_000) + i in
    let rid = 4_000_000_000 + (idx * 1_000_000) + i in
    let roll = Rng.int rng 100 in
    let op, command, args =
      if roll < write_pct then
        ( Linearize.Write (key, value),
          (if use_snapshots then "update" else "write"),
          [ Value.str key; Value.int value ] )
      else if use_snapshots then (Linearize.Snapshot, "snapshot", [])
      else (Linearize.Read key, "read", [ Value.str key ])
    in
    let inv = Runtime.ctx_now ctx in
    let outcome =
      Rpc.call ctx ~to_:member ~timeout:register_op_timeout ~attempts:1 ~request_id:rid
        command args
    in
    let resp = Runtime.ctx_now ctx in
    let finish reply =
      counts.ok <- counts.ok + 1;
      record { Linearize.client = idx; op; reply = Some reply; inv; resp }
    in
    (match (op, outcome) with
    | Linearize.Write _, Rpc.Reply ("written", []) | Linearize.Write _, Rpc.Reply ("updated", [])
      ->
        finish Linearize.Acked
    | Linearize.Read _, Rpc.Reply ("value", [ Value.Int v ]) ->
        finish (Linearize.Value_is (Some v))
    | Linearize.Read _, Rpc.Reply ("unknown_key", []) -> finish (Linearize.Value_is None)
    | Linearize.Snapshot, Rpc.Reply ("state", [ Value.Listv entries ]) -> (
        let parsed =
          List.fold_left
            (fun acc v ->
              match (acc, v) with
              | Some parsed, Value.Tuple [ Value.Str k; Value.Int v ] -> Some ((k, v) :: parsed)
              | _, _ -> None)
            (Some []) entries
        in
        match parsed with
        | Some entries -> finish (Linearize.State_is (List.rev entries))
        | None -> counts.no_effect <- counts.no_effect + 1)
    | _, Rpc.Timeout ->
        (* Post-timeout uncertainty (§3.5): the op may or may not have taken
           effect; the checker treats it as pending. *)
        counts.unknown <- counts.unknown + 1;
        record { Linearize.client = idx; op; reply = None; inv; resp = max_int }
    | _, (Rpc.Reply _ | Rpc.Failure_msg _) ->
        (* not_ready, or the request was discarded before reaching the
           member: guaranteed no effect, excluded from the history. *)
        counts.no_effect <- counts.no_effect + 1);
    Runtime.sleep ctx (gap + Rng.int rng (Int.max 1 (gap / 2)))
  done

let install_clients world ~def_name ~at ~ports ~keys ~write_pct ~use_snapshots ~counts
    ~workload ~clients ~horizon =
  let def : Runtime.def =
    {
      Runtime.def_name;
      provides = [ ([ Vtype.wildcard ], 64) ];
      init =
        (fun ctx args ->
          match args with
          | [ Value.Int idx; Value.Int count ] ->
              let rng = Rng.split (Runtime.ctx_rng ctx) in
              let gap = Int.max (Clock.ms 10) (horizon / Int.max 1 count) in
              run_client ctx ~counts ~rng ~ports ~keys ~write_pct ~use_snapshots ~idx ~count
                ~gap
          | _ -> invalid_arg (def_name ^ ": bad creation arguments"));
      recover = None;
    }
  in
  Runtime.register_def world def;
  List.iteri
    (fun idx count ->
      ignore
        (Runtime.create_guardian world ~at ~def_name
           ~args:[ Value.int idx; Value.int count ]))
    (split_workload ~clients workload)

(* The two SCD objects differ only in their group, its size and the
   client mix. *)
type scd_object = {
  members : int;
  keys : int;
  clients : int;
  write_pct : int;
  use_snapshots : bool;
  object_def : string;
  client_def : string;
  create_group :
    Runtime.world -> nodes:Runtime.node_id list -> introduce_at:Runtime.node_id ->
    Port_name.t list;
}

(* Build an SCD object's world and run it to its stop point: the first
   probe that proves quiescence.  Then the drivers are done, the crash plan
   has fired its last event, every broadcast is delivered everywhere (SCD's
   Termination) and the tables agree.  From there no table can change:
   statuses carry no payload, a duplicated client request is answered from
   its durable rid record, and there is nothing left to deliver.  Each op
   blocks at most one 1.5 s timeout plus pacing, so 60 s of virtual time
   past the horizon is a generous limit; a run that hits it goes on to the
   verdict, where scd_termination fails an undelivered broadcast. *)
let scd_object_at_stop obj (params : Scenario.params) =
  let profile = params.profile in
  let config = scenario_config profile in
  let world =
    Runtime.create_world ~seed:params.seed
      ~topology:(Topology.full_mesh ~n:(obj.members + 1) profile.Profile.link)
      ~config ~shards:params.shards ~parallel:params.parallel ()
  in
  let nodes = List.init obj.members Fun.id in
  let ports = Array.of_list (obj.create_group world ~nodes ~introduce_at:obj.members) in
  let counts = { ok = 0; unknown = 0; no_effect = 0 } in
  install_clients world ~def_name:obj.client_def ~at:obj.members ~ports ~keys:obj.keys
    ~write_pct:obj.write_pct ~use_snapshots:obj.use_snapshots ~counts
    ~workload:params.workload ~clients:obj.clients ~horizon:params.horizon;
  Chaos.schedule_crashes world ~rng:(chaos_rng params.seed) ~profile ~nodes
    ~horizon:params.horizon;
  Runtime.run_for world params.horizon;
  let faults_end = Chaos.faults_end ~profile ~horizon:params.horizon in
  let termination = Oracle.scd_termination ~def_name:obj.object_def in
  let convergence = Oracle.table_convergence ~def_name:obj.object_def in
  let holds (oracle : Oracle.t) = Result.is_ok (oracle.check world) in
  let convergence_ms =
    probe_convergence world ~max_steps:240 ~horizon:params.horizon ~ready:(fun () ->
        counts.ok + counts.unknown + counts.no_effect = params.workload
        && Runtime.now world >= faults_end
        && holds termination && holds convergence)
  in
  (world, counts, convergence_ms)

let run_scd_object obj (params : Scenario.params) =
  let world, counts, convergence_ms = scd_object_at_stop obj params in
  let issued = counts.ok + counts.unknown + counts.no_effect in
  let metric name = Metrics.count (Metrics.counter (Runtime.metrics world) name) in
  let stored_keys =
    match Runtime.find_guardians world ~def_name:obj.object_def with
    | [] -> 0
    | g :: _ -> List.length (Register.Table.in_store (Runtime.guardian_store g))
  in
  let verdict =
    if issued < params.workload then
      Scenario.Fail
        (Printf.sprintf "drivers issued only %d of %d operations" issued params.workload)
    else
      verdict_of
        [
          Oracle.linearizable ~clients:obj.client_def ();
          Oracle.table_convergence ~def_name:obj.object_def;
          Oracle.scd_termination ~def_name:obj.object_def;
          Oracle.stable_durability;
        ]
        world
  in
  {
    Scenario.verdict;
    fingerprint =
      world_fingerprint world
        (Printf.sprintf " ok=%d unk=%d ne=%d conv=%d" counts.ok counts.unknown
           counts.no_effect convergence_ms);
    stats =
      [
        ("ops_ok", counts.ok);
        ("ops_unknown", counts.unknown);
        ("ops_no_effect", counts.no_effect);
        ("keys", stored_keys);
        ("convergence_ms", convergence_ms);
        ("scd_msgs", metric Scd.metric_msgs);
        ("scd_sets", metric Scd.metric_sets);
        ("scd_statuses", metric Scd.metric_statuses);
        ("malformed", metric Scd.metric_malformed + metric Register.metric_malformed);
        ("events", Runtime.events_executed world);
      ]
      @ stable_stats world;
  }

let register_object ~stale_reads =
  {
    members = 5;
    keys = 4;
    clients = 4;
    write_pct = 55;
    use_snapshots = false;
    object_def = Register.def_name;
    client_def = "scd_register_client";
    create_group =
      (fun world ~nodes ~introduce_at ->
        Register.create_group world ~nodes ~stale_reads ~introduce_at ());
  }

let register_at_stop params =
  let world, _, _ = scd_object_at_stop (register_object ~stale_reads:false) params in
  world

let run_register ~stale_reads = run_scd_object (register_object ~stale_reads)

let register =
  {
    Scenario.name = "register";
    descr = "SCD-broadcast atomic registers under churn; linearizability of client histories";
    default_horizon = Clock.s 4;
    default_workload = 48;
    run = run_register ~stale_reads:false;
  }

let register_mutated =
  {
    Scenario.name = "register_mutated";
    descr =
      "register without delivery barriers: fast-acked writes, stale local reads (harness self-test; must fail)";
    default_horizon = Clock.s 4;
    default_workload = 48;
    run = run_register ~stale_reads:true;
  }

let snapshot =
  {
    Scenario.name = "snapshot";
    descr = "SCD-broadcast snapshot object under churn; atomic whole-state views";
    default_horizon = Clock.s 4;
    default_workload = 24;
    run =
      run_scd_object
        {
          members = 4;
          keys = 3;
          clients = 3;
          write_pct = 60;
          use_snapshots = true;
          object_def = Snapshot.def_name;
          client_def = "scd_snapshot_client";
          create_group =
            (fun world ~nodes ~introduce_at -> Snapshot.create_group world ~nodes ~introduce_at ());
        };
  }

let all = [ bank; airline; itinerary; replica; register; snapshot ]
let every = all @ [ bank_mutated; replica_1k; register_mutated ]
let find name = List.find_opt (fun s -> String.equal s.Scenario.name name) every
let names = List.map (fun s -> s.Scenario.name) every
