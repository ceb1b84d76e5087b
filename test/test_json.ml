(* The one JSON module behind every committed artifact: render/parse
   round-trips, numbers render in their shortest exact form, and malformed
   input raises Parse_error with the byte offset. *)

module Json = Dcp_json.Json

(* Awkward floats first, then arbitrary finite bit patterns. *)
let gen_float =
  QCheck2.Gen.(
    oneof
      [
        oneofl
          [ 199611.6; 1070.3; 0.4; 1e-3; -0.5; 2.0 ** 53.0; 0.1; 1e15; 1e300; 5e-324; -0.0 ];
        map float_of_int int;
        map
          (fun bits ->
            let f = Int64.float_of_bits bits in
            if Float.is_finite f then f else 0.0)
          int64;
      ])

let gen_string =
  QCheck2.Gen.(
    string_size ~gen:(oneof [ char; oneofl [ '"'; '\\'; '\n'; '\t'; '\r'; '\b'; '\000'; '\031' ] ])
      (int_bound 12))

let gen_json =
  QCheck2.Gen.(
    sized
    @@ fix (fun self n ->
           let scalar =
             oneof
               [
                 pure Json.Null;
                 map (fun b -> Json.Bool b) bool;
                 map (fun f -> Json.Num f) gen_float;
                 map (fun s -> Json.Str s) gen_string;
               ]
           in
           if n <= 0 then scalar
           else
             let sub = list_size (int_bound 4) (self (n / 4)) in
             frequency
               [
                 (2, scalar);
                 (1, map (fun items -> Json.Arr items) sub);
                 ( 1,
                   map
                     (fun fields -> Json.Obj fields)
                     (list_size (int_bound 4) (pair gen_string (self (n / 4)))) );
               ]))

let prop_roundtrip =
  QCheck2.Test.make ~name:"parse (render v) = v" ~count:500 ~print:Json.render gen_json (fun v ->
      Json.parse (Json.render v) = v)

let test_shortest_numbers () =
  List.iter
    (fun (f, text) -> Alcotest.(check string) text (text ^ "\n") (Json.render (Json.Num f)))
    [
      (199611.6, "199611.6");
      (1070.3, "1070.3");
      (181.0, "181");
      (0.4, "0.4");
      (1e-3, "0.001");
      (-0.5, "-0.5");
      (2.0 ** 53.0, "9007199254740992");
      (1e20, "1e+20");
      (Float.nan, "null");
    ]

let test_layout () =
  Alcotest.(check string) "scalar containers flat, others one member a line"
    "{\n  \"rows\": [\n    { \"name\": \"a\", \"ns\": 1.5 }\n  ],\n  \"tags\": [ \"x\", null ],\n  \"none\": {}\n}\n"
    (Json.render
       (Json.Obj
          [
            ("rows", Json.Arr [ Json.Obj [ ("name", Json.Str "a"); ("ns", Json.Num 1.5) ] ]);
            ("tags", Json.Arr [ Json.Str "x"; Json.Null ]);
            ("none", Json.Obj []);
          ]))

let parse_error input =
  match Json.parse input with
  | v -> Alcotest.failf "%S parsed as %s" input (Json.render v)
  | exception Json.Parse_error msg -> msg

let test_malformed () =
  List.iter
    (fun input -> ignore (parse_error input))
    [
      "";
      "   ";
      "{";
      "[1, 2";
      "\"abc";
      "\"ab\\";
      "{\"a\": 1";
      "{\"a\" 1}";
      "{1: 2}";
      "[1 2]";
      "1 2";
      "{} x";
      "nul";
      "tru";
      "falsy";
      "nan";
      "-";
      "\"\\q\"";
      "\"\\u12\"";
    ]

let test_unicode_escape_needs_four_hex_digits () =
  Alcotest.(check string) "non-hex digit" "expected four hex digits after \\u at byte 5"
    (parse_error "\"\\u00zz\"");
  Alcotest.(check string) "underscore is not a digit" "expected four hex digits after \\u at byte 4"
    (parse_error "\"\\u0_41\"");
  Alcotest.(check bool) "four hex digits decode" true
    (Json.parse "\"\\u0041\\u00e9\"" = Json.Str "A?")

let tests =
  [
    QCheck_alcotest.to_alcotest prop_roundtrip;
    Alcotest.test_case "shortest exact numbers" `Quick test_shortest_numbers;
    Alcotest.test_case "layout" `Quick test_layout;
    Alcotest.test_case "malformed input raises Parse_error" `Quick test_malformed;
    Alcotest.test_case "\\u escape needs four hex digits" `Quick
      test_unicode_escape_needs_four_hex_digits;
  ]
