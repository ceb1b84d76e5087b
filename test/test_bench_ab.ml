(* bench_diff ab's verdict on canned readings: the gain rule (nine wins
   in ten and a median lead past the parent's interquartile range) and
   the bound of BENCHMARK.json. *)

module Ab = Bench_ab

let ops = { Ab.name = "ops_per_s"; unit_ = "ops/s"; higher_is_better = true; bound = 0.24 }
let heap = { Ab.name = "peak_heap_mb"; unit_ = "MB"; higher_is_better = false; bound = 0.22 }
let pairs parent change = List.combine parent change

let check_spread name (median, q1, q3) s =
  Alcotest.(check (triple (float 1e-9) (float 1e-9) (float 1e-9)))
    name (median, q1, q3) (s.Ab.median, s.q1, s.q3)

let test_spread () =
  check_spread "odd count" (3., 2., 4.) (Ab.spread [ 5.; 1.; 3.; 2.; 4. ]);
  check_spread "even count, interpolated" (2.5, 1.75, 3.25) (Ab.spread [ 4.; 1.; 3.; 2. ]);
  check_spread "one sample" (7., 7., 7.) (Ab.spread [ 7. ])

let parent = [ 100.; 102.; 98.; 101.; 99.; 103.; 97.; 100.; 101.; 99. ]

let test_gain_holds () =
  let v = Ab.verdict ops (pairs parent (List.map (fun x -> x *. 1.3) parent)) in
  Alcotest.(check int) "ten wins" 10 v.wins;
  Alcotest.(check bool) "gain holds" true v.claim;
  Alcotest.(check bool) "within the bound" true (v.bound_status = Ab.Within)

let test_eight_wins_no_gain () =
  let change = [ 130.; 130.; 130.; 130.; 130.; 130.; 130.; 130.; 90.; 90. ] in
  let v = Ab.verdict ops (pairs parent change) in
  Alcotest.(check int) "eight wins" 8 v.wins;
  Alcotest.(check bool) "no gain with eight wins in ten" false v.claim

let test_lead_within_iqr_no_gain () =
  (* every pair won, by less than the parent's own spread *)
  let v = Ab.verdict ops (pairs parent (List.map (fun x -> x +. 1.) parent)) in
  Alcotest.(check int) "ten wins" 10 v.wins;
  Alcotest.(check bool) "no gain inside the parent's spread" false v.claim

let test_ties_count_for_neither () =
  let v = Ab.verdict ops (pairs parent parent) in
  Alcotest.(check int) "no wins" 0 v.wins;
  Alcotest.(check bool) "within" true (v.bound_status = Ab.Within)

let test_lower_is_better () =
  let v = Ab.verdict heap (pairs parent (List.map (fun x -> x *. 1.3) parent)) in
  Alcotest.(check int) "no wins" 0 v.wins;
  Alcotest.(check bool) "30% more heap is worse than 22%" true (v.bound_status = Ab.Worse);
  let v = Ab.verdict heap (pairs parent (List.map (fun x -> x *. 1.1) parent)) in
  Alcotest.(check bool) "10% more heap is within 22%" true (v.bound_status = Ab.Within)

let test_wide_spread_unresolved () =
  let wide = [ 60.; 140.; 70.; 130.; 80.; 120.; 65.; 135.; 100.; 100. ] in
  let v = Ab.verdict ops (pairs wide (List.map (fun x -> x *. 0.9) wide)) in
  Alcotest.(check bool) "unresolved" true (v.bound_status = Ab.Unresolved);
  let v = Ab.verdict ops (pairs wide (List.map (fun _ -> 150.) wide)) in
  Alcotest.(check bool) "resolved when every change run beats every parent run" true
    (v.bound_status = Ab.Within)

let test_benchmark_metrics () =
  let root =
    Dcp_json.Json.parse
      {|{"end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
                        {"name": "ops_per_s", "unit": "ops/s", "better": "higher", "bound": 0.24}]}|}
  in
  match Ab.metrics_of_benchmark root with
  | [ setup; ops' ] ->
      Alcotest.(check bool) "setup: lower is better" false setup.higher_is_better;
      Alcotest.(check bool) "ops: higher is better" true ops'.higher_is_better;
      Alcotest.(check (float 1e-9)) "bound" 0.24 ops'.bound
  | _ -> Alcotest.fail "two metrics"

let tests =
  [
    Alcotest.test_case "median and quartiles" `Quick test_spread;
    Alcotest.test_case "a clear gain holds" `Quick test_gain_holds;
    Alcotest.test_case "eight wins in ten claim nothing" `Quick test_eight_wins_no_gain;
    Alcotest.test_case "a lead inside the parent's IQR claims nothing" `Quick
      test_lead_within_iqr_no_gain;
    Alcotest.test_case "ties count for neither side" `Quick test_ties_count_for_neither;
    Alcotest.test_case "lower-is-better metrics and the bound" `Quick test_lower_is_better;
    Alcotest.test_case "a spread wider than the bound is unresolved" `Quick
      test_wide_spread_unresolved;
    Alcotest.test_case "BENCHMARK.json's end-to-end metrics" `Quick test_benchmark_metrics;
  ]
