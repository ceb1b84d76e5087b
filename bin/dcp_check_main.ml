(* dcp_check — deterministic simulation-check runner.

   Subcommands:
     list     show the scenario library and the fault-profile matrix
     run      replay one (scenario, seed, profile); print its verdict,
              fingerprint and stats
     sweep    run many seeds per profile; merge them into CHECK_sweep.json
     shrink   minimise a failing (seed, profile) to the smallest repro

   Examples:
     dune exec bin/dcp_check.exe -- sweep --scenario bank --profiles lan,wan+crash --seeds 200
     dune exec bin/dcp_check.exe -- run --scenario bank --seed 42 --profile wan+crash
     dune exec bin/dcp_check.exe -- shrink --scenario bank_mutated --seed 1 --profile lan *)

open Cmdliner
module Check = Dcp_check
module Clock = Dcp_sim.Clock

let scenario_of_name name =
  match Check.Scenarios.find name with
  | Some s -> Ok s
  | None ->
      Error
        (Printf.sprintf "unknown scenario %S (have: %s)" name
           (String.concat ", " Check.Scenarios.names))

let profiles_of_names names =
  List.fold_left
    (fun acc name ->
      match (acc, Check.Profile.find name) with
      | Error _, _ -> acc
      | Ok ps, Some p -> Ok (ps @ [ p ])
      | Ok _, None ->
          Error
            (Printf.sprintf "unknown profile %S (have: %s)" name
               (String.concat ", " Check.Profile.names)))
    (Ok []) names

let horizon_of_ms = Option.map (fun ms -> Clock.ms ms)

(* ---- list ---- *)

let run_list () =
  print_endline "Scenarios:";
  List.iter
    (fun s ->
      Printf.printf "  %-14s %s (horizon %s, workload %d)\n" s.Check.Scenario.name
        s.Check.Scenario.descr
        (Format.asprintf "%a" Clock.pp s.Check.Scenario.default_horizon)
        s.Check.Scenario.default_workload)
    Check.Scenarios.every;
  print_endline "Profiles:";
  List.iter (fun p -> Format.printf "  %a@." Check.Profile.pp p) Check.Profile.all;
  `Ok ()

let list_cmd = Cmd.v (Cmd.info "list" ~doc:"List scenarios and fault profiles") Term.(ret (const run_list $ const ()))

(* ---- shared args ---- *)

let scenario_arg =
  Arg.(value & opt string "bank" & info [ "scenario" ] ~doc:"Scenario name (see list).")

let profile_arg =
  Arg.(value & opt string "lan" & info [ "profile" ] ~doc:"Fault profile name (see list).")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Scenario seed.")

let horizon_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "horizon-ms" ] ~doc:"Fault/workload window in virtual milliseconds.")

let workload_arg =
  Arg.(value & opt (some int) None & info [ "workload" ] ~doc:"Workload size knob.")

let intensity_arg =
  Arg.(value & opt float 1.0 & info [ "intensity" ] ~doc:"Fault-intensity scale in [0,1].")

let shards_arg =
  Arg.(
    value
    & opt int 1
    & info [ "shards" ]
        ~doc:
          "Partition the world into N shards (guardian-affinity placement, epoch-barrier \
           cross-shard messaging).  The fingerprint depends on (seed, shards).")

let parallel_arg =
  Arg.(
    value
    & flag
    & info [ "parallel" ]
        ~doc:
          "Run the shards on N domains.  Must not change any fingerprint — a divergence from \
           the sequential run is a determinism bug.")

(* ---- run ---- *)

let run_run scenario_name seed profile_name horizon_ms workload intensity shards parallel =
  match (scenario_of_name scenario_name, profiles_of_names [ profile_name ]) with
  | Error e, _ | _, Error e -> `Error (false, e)
  | Ok scenario, Ok [ profile ] ->
      let outcome =
        Check.Scenario.execute scenario ~seed ~profile
          ?horizon:(horizon_of_ms horizon_ms)
          ?workload ~intensity ~shards ~parallel ()
      in
      Format.printf "%s seed=%d profile=%s: %a@." scenario_name seed profile_name
        Check.Scenario.pp_outcome outcome;
      print_endline
        (String.concat " "
           (List.map
              (fun (name, value) -> Printf.sprintf "%s=%d" name value)
              outcome.Check.Scenario.stats));
      (match outcome.Check.Scenario.verdict with
      | Check.Scenario.Pass -> `Ok ()
      | Check.Scenario.Fail _ -> `Error (false, "scenario failed"))
  | Ok _, Ok _ -> assert false

let run_cmd =
  Cmd.v
    (Cmd.info "run" ~doc:"Replay one (scenario, seed, profile) deterministically")
    Term.(
      ret
        (const run_run $ scenario_arg $ seed_arg $ profile_arg $ horizon_arg $ workload_arg
       $ intensity_arg $ shards_arg $ parallel_arg))

(* ---- sweep ---- *)

let run_sweep scenario_name profile_names seeds seed_base horizon_ms workload shards parallel
    json_path quiet =
  let scenarios =
    if String.equal scenario_name "all" then Ok Check.Scenarios.all
    else Result.map (fun s -> [ s ]) (scenario_of_name scenario_name)
  in
  match (scenarios, profiles_of_names profile_names) with
  | Error e, _ | _, Error e -> `Error (false, e)
  | Ok scenarios, Ok profiles ->
      let sweeps =
        List.map
          (fun scenario ->
            let sweep =
              Check.Sweep.run
                ?horizon:(horizon_of_ms horizon_ms)
                ?workload ~shards ~parallel scenario ~profiles ~seed_base ~seeds
            in
            if not quiet then Format.printf "%a@." Check.Sweep.pp sweep;
            sweep)
          scenarios
      in
      (match Check.Sweep.write_json ~path:json_path sweeps with
      | Ok () -> if not quiet then Printf.printf "wrote %s\n%!" json_path
      | Error e ->
          prerr_endline ("dcp_check: " ^ e);
          exit 2);
      let failures = List.concat_map (fun s -> s.Check.Sweep.failures) sweeps in
      if failures = [] then `Ok ()
      else
        `Error
          ( false,
            Printf.sprintf "%d failing run(s); shrink one with: dcp_check shrink --scenario %s --seed %d --profile %s"
              (List.length failures)
              (List.hd sweeps).Check.Sweep.scenario
              (List.hd failures).Check.Sweep.seed (List.hd failures).Check.Sweep.profile )

let sweep_cmd =
  let profiles_arg =
    Arg.(
      value
      & opt (list string) [ "lan"; "wan+crash"; "lossy+crash" ]
      & info [ "profiles" ] ~doc:"Comma-separated fault profiles.")
  in
  let seeds_arg =
    Arg.(value & opt int 100 & info [ "seeds" ] ~doc:"Seeds per profile.")
  in
  let seed_base_arg =
    Arg.(value & opt int 1 & info [ "seed-base" ] ~doc:"First seed of the range.")
  in
  let json_arg =
    Arg.(
      value
      & opt string "CHECK_sweep.json"
      & info [ "json" ]
          ~doc:
            "The sweep summary JSON to merge into: each sweep replaces the entry with its \
             scenario and profiles, and the others are kept.")
  in
  let quiet_arg = Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress the console summary.") in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Multi-seed sweep across the fault-profile matrix")
    Term.(
      ret
        (const run_sweep $ scenario_arg $ profiles_arg $ seeds_arg $ seed_base_arg $ horizon_arg
       $ workload_arg $ shards_arg $ parallel_arg $ json_arg $ quiet_arg))

(* ---- shrink ---- *)

let run_shrink scenario_name seed profile_name horizon_ms workload budget =
  match (scenario_of_name scenario_name, profiles_of_names [ profile_name ]) with
  | Error e, _ | _, Error e -> `Error (false, e)
  | Ok scenario, Ok [ profile ] -> (
      match
        Check.Shrink.run scenario ~seed ~profile
          ?horizon:(horizon_of_ms horizon_ms)
          ?workload ~budget ()
      with
      | Error e -> `Error (false, e)
      | Ok counterexample ->
          Format.printf "%a@." Check.Shrink.pp counterexample;
          `Ok ())
  | Ok _, Ok _ -> assert false

let shrink_cmd =
  let budget_arg =
    Arg.(value & opt int 60 & info [ "budget" ] ~doc:"Maximum scenario runs to spend.")
  in
  Cmd.v
    (Cmd.info "shrink" ~doc:"Minimise a failing (seed, profile) configuration")
    Term.(
      ret
        (const run_shrink $ scenario_arg $ seed_arg $ profile_arg $ horizon_arg $ workload_arg
       $ budget_arg))

let () =
  let doc = "deterministic simulation checks for the guardian runtime" in
  exit (Cmd.eval (Cmd.group (Cmd.info "dcp_check" ~doc) [ list_cmd; run_cmd; sweep_cmd; shrink_cmd ]))
