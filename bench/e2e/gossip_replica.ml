(* gossip_replica: few, large anti-entropy messages — the opposite of
   echo_local's many small ones.

   [groups] independent groups of [Replica]s share one world on
   [Link.lossy 0.05], each with fanout 2, a 250 ms sync period and an
   8 KiB byte budget, so sync traffic is multi-KB digests and
   [Reconcile.diff]s.  Each group's writer writes [keys] keys of 64 bytes,
   each through a replica drawn from the seed, and the benchmark probes
   every 500 ms of virtual time until every replica of the group holds
   every key with the same stamp.  An op is one key, counted when its group
   converges.  The run then goes on to a fixed virtual horizon.

   One group's convergence is one draw of a random process, and how much
   sync work it takes varies from seed to seed; eight groups average that
   out (from 6% of minor-heap words per op across seeds with four groups
   of 16 and 200 keys, to 2%).  The groups are joined by the writers
   ([join] is part of the replica port) because [Replica.create_group]
   supports one group per world. *)

open Dcp_wire
module Runtime = Dcp_core.Runtime
module Replica = Dcp_primitives.Replica
module Metrics = Dcp_sim.Metrics
module Clock = Dcp_sim.Clock
module Rng = Dcp_rng.Rng

(* groups, replicas per group, keys per group *)
let size ~smoke = if smoke then (2, 8, 20) else (8, 8, 100)
let value_bytes = 64
let probe_every = Clock.ms 500

(* The run lasts at least [horizon] in virtual time, past the convergence
   of every seed (6.5 to 11.5 s over seeds 1 to 40), so that its host cost
   does not depend on when a seed happens to converge.  A group that has
   not converged by [give_up] is a failure. *)
let horizon = Clock.s 20
let give_up = Clock.s 600
let replica_args = [ Value.int (Clock.ms 250); Value.int 2; Value.int 8192 ]
let join_base = 3_000_000_000
let write_base = 5_000_000_000

let setup ~seed ~smoke tr =
  let groups, n, keys = size ~smoke in
  let rng = Rng.create ~seed in
  let values =
    Array.init groups (fun _ -> Array.init keys (fun _ -> Workload.payload rng value_bytes))
  in
  let via = Array.init groups (fun _ -> Array.init keys (fun _ -> Rng.int rng n)) in
  let world =
    Runtime.create_world ~seed:(Rng.int rng 1_000_000_000)
      ~topology:(Dcp_net.Topology.full_mesh ~n:(groups * (n + 1)) (Dcp_net.Link.lossy 0.05))
      ()
  in
  let k_run = Span.kind tr "sim.run" Span.Host in
  let k_probe = Span.kind tr "bench.probe" Span.Host in
  let k_call = Span.kind tr "primitives.rpc_call" Span.Virtual in
  let violations = ref [] and failed = ref 0 in
  let call ctx ~to_ ~request_id command args expect =
    let start = Runtime.ctx_now ctx in
    let ok =
      match
        Workload.call_until_reply ctx ~to_ ~timeout:(Clock.ms 500) ~attempts:3 ~request_id
          command args
      with
      | Some (answer, _, _) when String.equal answer expect -> true
      | Some (answer, _, _) ->
          Workload.violation violations
            (Printf.sprintf "%s %d answered %s" command request_id answer);
          false
      | None ->
          incr failed;
          false
    in
    Span.virtual_span tr k_call ~req:request_id ~start ~stop:(Runtime.ctx_now ctx);
    ok
  in
  (* Group g's replicas live on nodes g*n .. g*n+n-1, its writer on node
     groups*n+g. *)
  Runtime.register_def world Replica.def;
  let members =
    Array.init groups (fun g ->
        Array.init n (fun i ->
            Runtime.create_guardian world ~at:((g * n) + i) ~def_name:Replica.def_name
              ~args:replica_args))
  in
  let replicas = Array.map (Array.map (fun m -> List.hd (Runtime.guardian_ports m))) members in
  let stores = Array.map (fun ms -> List.map Runtime.guardian_store (Array.to_list ms)) members in
  let joined = ref 0 and written = Array.make groups 0 in
  let written_at = Array.make_matrix groups keys 0 in
  let writer =
    {
      Runtime.def_name = "gossip_writer";
      provides = [];
      init =
        (fun ctx args ->
          match args with
          | [ Value.Int g; Value.Str "join" ] ->
              let group = Array.to_list replicas.(g) in
              List.iteri
                (fun i replica ->
                  let peers = List.filter (fun p -> not (Port_name.equal p replica)) group in
                  if
                    call ctx ~to_:replica ~request_id:(join_base + (g * n) + i) "join"
                      [ Value.list (List.map Value.port peers) ] "joined"
                  then incr joined)
                group
          | [ Value.Int g; Value.Str "write" ] ->
              for i = 0 to keys - 1 do
                written_at.(g).(i) <- Runtime.ctx_now ctx;
                let key = Value.str (Printf.sprintf "k%04d" i) in
                if
                  call ctx ~to_:replicas.(g).(via.(g).(i)) ~request_id:(write_base + (g * keys) + i)
                    "write" [ key; Value.str values.(g).(i) ] "written"
                then written.(g) <- written.(g) + 1
              done
          | _ -> invalid_arg "gossip_writer: expected (group, join | write)");
      recover = None;
    }
  in
  Runtime.register_def world writer;
  let start_writers phase =
    for g = 0 to groups - 1 do
      ignore
        (Runtime.create_guardian world ~at:((groups * n) + g) ~def_name:"gossip_writer"
           ~args:[ Value.int g; Value.str phase ])
    done
  in
  (* Bootstrap: until every replica has joined its group. *)
  start_writers "join";
  let rec join probes =
    if !joined < groups * n then
      if probes = 0 || !violations <> [] || !failed > 0 then
        failwith "gossip_replica: the groups did not finish joining"
      else begin
        Runtime.run_for world (Clock.ms 100);
        join (probes - 1)
      end
  in
  join 600;
  start_writers "write";
  let converged g =
    written.(g) = keys
    &&
    match stores.(g) with
    | [] -> false
    | store :: rest ->
        let first = Replica.table_in_store store in
        List.length first = keys && List.for_all (fun s -> Replica.table_in_store s = first) rest
  in
  let sync_counters () =
    List.map
      (fun name -> Metrics.count (Metrics.counter (Runtime.metrics world) name))
      Replica.[ metric_sync_msgs; metric_sync_bytes; metric_pulls; metric_pushes ]
  in
  fun () ->
    let before = Workload.tally world in
    let sync_before = sync_counters () in
    let start = Runtime.now world in
    let converge = Array.make groups None in
    let run_until t =
      Span.enter tr k_run ~req:(-1);
      Runtime.run_for world (t - Runtime.now world);
      Span.leave tr
    in
    while Runtime.now world < start + give_up && Array.exists Option.is_none converge do
      run_until (Runtime.now world + probe_every);
      Span.enter tr k_probe ~req:(-1);
      Array.iteri
        (fun g c -> if Option.is_none c && converged g then converge.(g) <- Some (Runtime.now world))
        converge;
      Span.leave tr
    done;
    run_until (Int.max (start + horizon) (Runtime.now world));
    let after = Workload.tally world in
    if Array.exists Option.is_none converge then
      Workload.violation violations
        (Printf.sprintf "not every group of %d replicas agreed on %d keys within %.0f s" n keys
           (Clock.to_float_s give_up));
    let at = Array.map (Option.value ~default:(Runtime.now world)) converge in
    let latencies =
      Array.concat (List.init groups (fun g -> Array.map (fun t -> at.(g) - t) written_at.(g)))
    in
    let ops = groups * keys in
    let sync = List.map2 ( - ) (sync_counters ()) sync_before in
    let per_key i = Workload.ratio (List.nth sync i) ops in
    Workload.of_tallies ~before ~after ~ops ~failed:!failed ~violations:!violations ~latencies
      ~converge:(Array.fold_left Int.max start at - start)
      ~layers:
        [
          ("primitives.replica_sync_msgs_per_key", per_key 0);
          ("primitives.replica_sync_bytes_per_key", per_key 1);
          ("primitives.replica_pulls", float_of_int (List.nth sync 2));
          ("primitives.replica_pushes", float_of_int (List.nth sync 3));
        ]
      ()

let workload = { Workload.name = "gossip_replica"; setup }
