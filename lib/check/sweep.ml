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

let schema = "dcp.check.sweep/v1"

(* [wall_s] keeps the millisecond precision the file has always carried. *)
let to_json t =
  let open Dcp_json.Json in
  let int n = Num (float_of_int n) in
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
             (fun f -> Obj [ ("profile", Str f.profile); ("seed", int f.seed); ("reason", Str f.reason) ])
             t.failures) );
    ]

(* The entries already in [path]: none if it does not exist. *)
let existing path =
  let open Dcp_json.Json in
  let refuse why = Error (Printf.sprintf "%s is not a %s file (%s); left as it is" path schema why) in
  if not (Sys.file_exists path) then Ok []
  else
    match parse (In_channel.with_open_bin path In_channel.input_all) with
    | exception (Parse_error e | Sys_error e) -> refuse e
    | json -> (
        match (member "schema" json, member "sweeps" json) with
        | Some (Str s), Some (Arr sweeps) when String.equal s schema -> Ok sweeps
        | _ -> refuse "no schema and sweeps")

(* An entry is a sweep's when it has the sweep's scenario and profiles. *)
let same entry t =
  let open Dcp_json.Json in
  member "scenario" entry = Some (Str t.scenario)
  && member "profiles" entry = Some (Arr (List.map (fun p -> Str p) t.profiles))

let write_json ~path sweeps =
  let open Dcp_json.Json in
  let merge entries =
    let entry e = match List.find_opt (same e) sweeps with Some t -> to_json t | None -> e in
    let fresh = List.filter (fun t -> not (List.exists (fun e -> same e t) entries)) sweeps in
    let all = List.map entry entries @ List.map to_json fresh in
    to_file path (Obj [ ("schema", Str schema); ("sweeps", Arr all) ])
  in
  Result.map merge (existing path)
