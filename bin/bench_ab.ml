module Json = Dcp_json.Json

type metric = { name : string; unit_ : string; higher_is_better : bool; bound : float }

let metrics_of_benchmark root =
  let fail () = failwith "not a BENCHMARK.json: no end_to_end metrics" in
  match Json.member "end_to_end" root with
  | Some (Arr metrics) ->
      List.map
        (fun m ->
          match
            (Json.member "name" m, Json.member "unit" m, Json.member "better" m, Json.member "bound" m)
          with
          | Some (Str name), Some (Str unit_), Some (Str better), Some (Num bound) ->
              { name; unit_; higher_is_better = String.equal better "higher"; bound }
          | _ -> fail ())
        metrics
  | _ -> fail ()

type spread = { median : float; q1 : float; q3 : float }

let spread samples =
  if samples = [] then invalid_arg "Bench_ab.spread: no samples";
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  let at q =
    let pos = q *. float_of_int (Array.length a - 1) in
    let lo = truncate pos in
    let hi = Int.min (lo + 1) (Array.length a - 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))
  in
  { median = at 0.5; q1 = at 0.25; q3 = at 0.75 }

type bound_status = Within | Worse | Unresolved

type verdict = {
  metric : metric;
  parent : spread;
  change : spread;
  wins : int;
  pairs : int;
  claim : bool;
  bound_status : bound_status;
}

let verdict metric readings =
  if readings = [] then invalid_arg "Bench_ab.verdict: no pairs";
  let better a b = if metric.higher_is_better then a > b else a < b in
  let parents = List.map fst readings and changes = List.map snd readings in
  let parent = spread parents and change = spread changes in
  let wins = List.length (List.filter (fun (p, c) -> better c p) readings) in
  let pairs = List.length readings in
  (* The change's lead on the median, and its worsening as a share of
     the parent's median: each positive in the change's favour and
     disfavour respectively. *)
  let lead =
    if metric.higher_is_better then change.median -. parent.median
    else parent.median -. change.median
  in
  let iqr = parent.q3 -. parent.q1 in
  let share x = if parent.median = 0. then if x = 0. then 0. else infinity else x /. Float.abs parent.median in
  let worsening = share (-.lead) in
  let every_run_better =
    List.for_all (fun c -> List.for_all (fun p -> better c p) parents) changes
  in
  let bound_status =
    if share iqr > metric.bound && not every_run_better then Unresolved
    else if worsening <= metric.bound then Within
    else Worse
  in
  {
    metric;
    parent;
    change;
    wins;
    pairs;
    claim = wins * 10 >= pairs * 9 && lead > iqr;
    bound_status;
  }

let pp_spread fmt s = Format.fprintf fmt "%.4g [%.4g, %.4g]" s.median s.q1 s.q3

let pp_verdict fmt v =
  let ratio = if v.parent.median = 0. then Float.nan else v.change.median /. v.parent.median in
  Format.fprintf fmt "%-14s %-6s parent %a  change %a  x%.3f  wins %d/%d  gain %s  bound %.0f%%: %s"
    v.metric.name v.metric.unit_ pp_spread v.parent pp_spread v.change ratio v.wins v.pairs
    (if v.claim then "holds" else "not shown")
    (v.metric.bound *. 100.)
    (match v.bound_status with
    | Within -> "within"
    | Worse -> "WORSE"
    | Unresolved -> "unresolved (parent spread wider than the bound)")

(* ---- running the two builds ---- *)

exception Usage of string

(* One run's result line, the last line of its output that opens a JSON
   object: whether it was correct, and its metrics, each a number or an
   object holding it as its [value]. *)
let run_once exe args =
  let out = Filename.temp_file "bench_ab" ".out" in
  let code = Sys.command (Filename.quote_command exe args ~stdout:out) in
  let text = In_channel.with_open_bin out In_channel.input_all in
  Sys.remove out;
  let result =
    List.fold_left
      (fun found line -> if String.starts_with ~prefix:"{" line then Some line else found)
      None (String.split_on_char '\n' text)
  in
  match Option.map Json.parse result with
  | Some root ->
      let correct = Json.member "correct" root = Some (Json.Bool true) && code = 0 in
      let metrics =
        match Json.member "metrics" root with
        | Some (Obj fields) ->
            List.filter_map
              (fun (name, m) ->
                match m with
                | Json.Num x -> Some (name, x)
                | _ -> (
                    match Json.member "value" m with Some (Json.Num x) -> Some (name, x) | _ -> None))
              fields
        | _ -> []
      in
      (correct, metrics)
  | None -> raise (Usage (Printf.sprintf "%s: no result line (exit %d)" exe code))
  | exception Json.Parse_error msg -> raise (Usage (Printf.sprintf "%s: %s" exe msg))

let usage =
  "usage: bench_diff.exe ab [--pairs N] [--benchmark FILE] PARENT.exe CHANGE.exe [-- ARGS...]"

let rec parse_args pairs benchmark = function
  | "--pairs" :: n :: rest -> (
      match int_of_string_opt n with
      | Some n when n > 0 -> parse_args n benchmark rest
      | _ -> raise (Usage usage))
  | "--benchmark" :: file :: rest -> parse_args pairs file rest
  | [ parent; change ] -> (pairs, benchmark, parent, change, [])
  | parent :: change :: "--" :: args -> (pairs, benchmark, parent, change, args)
  | _ -> raise (Usage usage)

let main args =
  match
    let pairs, benchmark, parent, change, args = parse_args 10 "BENCHMARK.json" args in
    let metrics =
      try metrics_of_benchmark (Json.parse (In_channel.with_open_bin benchmark In_channel.input_all))
      with Failure msg | Json.Parse_error msg | Sys_error msg -> raise (Usage (benchmark ^ ": " ^ msg))
    in
    let all_correct = ref true in
    let readings =
      List.init pairs (fun i ->
          let parent_first = i mod 2 = 0 in
          let run exe =
            let correct, values = run_once exe args in
            if not correct then all_correct := false;
            values
          in
          let p, c =
            if parent_first then
              let p = run parent in
              (p, run change)
            else
              let c = run change in
              (run parent, c)
          in
          Printf.printf "pair %d/%d (%s first):%s\n%!" (i + 1) pairs
            (if parent_first then "parent" else "change")
            (String.concat ""
               (List.map
                  (fun m ->
                    match (List.assoc_opt m.name p, List.assoc_opt m.name c) with
                    | Some x, Some y -> Printf.sprintf " %s %.4g/%.4g" m.name x y
                    | _ -> "")
                  metrics));
          (p, c))
    in
    let verdicts =
      List.filter_map
        (fun m ->
          match
            List.map (fun (p, c) -> (List.assoc m.name p, List.assoc m.name c)) readings
          with
          | pairs -> Some (verdict m pairs)
          | exception Not_found -> None)
        metrics
    in
    Format.printf "@.%d pairs, parent %s, change %s, args: %s@." pairs parent change
      (String.concat " " args);
    List.iter (fun v -> Format.printf "%a@." pp_verdict v) verdicts;
    if not !all_correct then Format.printf "FAIL: a run was not correct@.";
    if (not !all_correct) || List.exists (fun v -> v.bound_status = Worse) verdicts then 1 else 0
  with
  | code -> code
  | exception Usage msg ->
      prerr_endline msg;
      2
