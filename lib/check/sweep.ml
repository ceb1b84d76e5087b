type failure = {
  profile : string;
  seed : int;
  reason : string;
}

type t = {
  scenario : string;
  profiles : string list;
  seed_base : int;
  seeds : int;
  runs : int;
  failures : failure list;
  wall_s : float;
}

let run ?horizon ?workload ?(shards = 1) ?(parallel = false) scenario ~profiles ~seed_base
    ~seeds =
  let started = Unix.gettimeofday () in
  let failures = ref [] in
  List.iter
    (fun profile ->
      for seed = seed_base to seed_base + seeds - 1 do
        let outcome =
          Scenario.execute scenario ~seed ~profile ?horizon ?workload ~shards ~parallel ()
        in
        match Scenario.fail_reason outcome with
        | None -> ()
        | Some reason -> failures := { profile = profile.Profile.name; seed; reason } :: !failures
      done)
    profiles;
  {
    scenario = scenario.Scenario.name;
    profiles = List.map (fun p -> p.Profile.name) profiles;
    seed_base;
    seeds;
    runs = List.length profiles * seeds;
    failures = List.rev !failures;
    wall_s = Unix.gettimeofday () -. started;
  }

let pp ppf t =
  Format.fprintf ppf "@[<v>%s: %d runs (%d seeds from %d x profiles %s): %d failure%s, %.2fs@]"
    t.scenario t.runs t.seeds t.seed_base
    (String.concat "," t.profiles)
    (List.length t.failures)
    (if List.length t.failures = 1 then "" else "s")
    t.wall_s;
  List.iter
    (fun f -> Format.fprintf ppf "@
  FAIL seed=%d profile=%s: %s" f.seed f.profile f.reason)
    t.failures

(* [wall_s] keeps the millisecond precision the file has always carried. *)
let write_json ~path sweeps =
  let open Dcp_json.Json in
  let int n = Num (float_of_int n) in
  let sweep t =
    Obj
      [
        ("scenario", Str t.scenario);
        ("profiles", Arr (List.map (fun p -> Str p) t.profiles));
        ("seed_base", int t.seed_base);
        ("seeds_per_profile", int t.seeds);
        ("runs", int t.runs);
        ("wall_s", Num (float_of_string (Printf.sprintf "%.3f" t.wall_s)));
        ( "failures",
          Arr
            (List.map
               (fun f ->
                 Obj [ ("profile", Str f.profile); ("seed", int f.seed); ("reason", Str f.reason) ])
               t.failures) );
      ]
  in
  to_file path (Obj [ ("schema", Str "dcp.check.sweep/v1"); ("sweeps", Arr (List.map sweep sweeps)) ])
