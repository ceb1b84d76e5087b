(* Compare two `dcp.bench.micro/v1` JSON files and fail (exit 1) on any
   regressed row:

     bench_diff.exe BASELINE.json CANDIDATE.json

   Rows are classed by the unit suffix in their name:

   - exact   — "(msgs/op)", "(msgs)", "(virtual ms)", "(bytes)",
               "(words)": deterministic functions of the pinned seed or of the code
               (minor-heap words per call), gated at 0% drift (ANY
               change fails, in either direction — an improvement must
               update the committed baseline, not slip past the gate);
   - thruput — "(msgs/s)", "(x)": wall-clock throughput, higher is
               better; regressed when the candidate is LOWER than the
               baseline by more than 50% (shared-host interference is
               one-sided — it only ever slows a run — so downward noise
               runs hotter than timing jitter);
   - timing  — everything else (ns/op): regressed when HIGHER than the
               baseline by more than 25%.

   Every row present in both files is gated.  A baseline row with an
   estimate fails when the candidate's is null, and an exact baseline row
   fails when the candidate lacks it, so a candidate that holds only the
   exact rows (`main.exe replica-rows`) must hold all of them.  A row new
   in the candidate, or null in the baseline, is reported but not gated.
   A file that does not parse is reported as `PATH: message` with
   exit 2. *)

module Json = Dcp_json.Json

let schema = "dcp.bench.micro/v1"

type row_class = Exact | Throughput | Timing

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m > 0 && go 0

let classify name =
  if
    contains_sub name "(msgs/op)" || contains_sub name "(msgs)"
    || contains_sub name "(virtual ms)" || contains_sub name "(bytes)"
    || contains_sub name "(words)"
  then Exact
  else if contains_sub name "(msgs/s)" || contains_sub name "(x)" then Throughput
  else Timing

(* name -> ns_per_op option, in file order *)
let load_rows path =
  let fail msg = failwith (Printf.sprintf "%s: %s" path msg) in
  let root =
    try Json.parse (In_channel.with_open_bin path In_channel.input_all)
    with Json.Parse_error msg -> fail msg
  in
  (match Json.member "schema" root with
  | Some (Str s) when s = schema -> ()
  | _ -> fail ("not a " ^ schema ^ " file"));
  match Json.member "results" root with
  | Some (Arr rows) ->
      List.map
        (fun row ->
          match (Json.member "name" row, Json.member "ns_per_op" row) with
          | Some (Str name), Some (Num ns) -> (name, Some ns)
          | Some (Str name), Some Null -> (name, None)
          | _ -> fail "malformed results row")
        rows
  | _ -> fail "missing results array"

(* Percent a timing row may rise; a throughput row may fall twice as far. *)
let threshold = 25.0

let () =
  let baseline_path, candidate_path =
    match Array.to_list Sys.argv with
    | [ _; b; c ] when not (String.starts_with ~prefix:"-" b || String.starts_with ~prefix:"-" c)
      ->
        (b, c)
    | _ ->
        prerr_endline "usage: bench_diff.exe BASELINE.json CANDIDATE.json";
        exit 2
  in
  let baseline, candidate =
    try (load_rows baseline_path, load_rows candidate_path)
    with Failure msg ->
      prerr_endline msg;
      exit 2
  in
  (* Gate rows in candidate order so the report matches the bench output. *)
  let regressions = ref [] in
  let missing = ref [] in
  Printf.printf "%-42s %12s %12s %9s\n" "row" "baseline" "candidate" "delta";
  List.iter
    (fun (name, cand) ->
      match List.assoc_opt name baseline with
      | None | Some None ->
          Printf.printf "%-42s %12s %12s %9s\n" name "-"
            (match cand with Some c -> Printf.sprintf "%.1f" c | None -> "null")
            "new"
      | Some (Some base) -> (
          match cand with
          | None ->
              Printf.printf "%-42s %12.1f %12s %9s\n" name base "null" "?";
              missing := name :: !missing
          | Some cand ->
              let delta = if base = 0.0 then 0.0 else (cand -. base) /. base *. 100.0 in
              let regressed =
                match classify name with
                | Exact -> cand <> base
                | Throughput -> delta < -2.0 *. threshold
                | Timing -> delta > threshold
              in
              Printf.printf "%-42s %12.1f %12.1f %+8.1f%%%s\n" name base cand delta
                (if regressed then "  << REGRESSION" else "");
              if regressed then regressions := (name, delta) :: !regressions))
    candidate;
  List.iter
    (fun (name, base) ->
      match (classify name, base) with
      | Exact, Some _ when not (List.mem_assoc name candidate) -> missing := name :: !missing
      | _ -> ())
    baseline;
  if !missing <> [] then begin
    Printf.printf "\nFAIL: gated row(s) without a candidate estimate: %s\n"
      (String.concat ", " (List.rev !missing));
    exit 1
  end;
  if !regressions <> [] then begin
    Printf.printf "\nFAIL: %d row(s) regressed (exact rows pinned at 0%%, others at %.0f%%)\n"
      (List.length !regressions) threshold;
    exit 1
  end;
  Printf.printf "\nOK: no row regressed (exact rows pinned at 0%%, others at %.0f%%)\n" threshold
