(* The wire layer: values, types, codec, tokens, transmittable types. *)

open Dcp_wire
module Rng = Dcp_rng.Rng

(* ---- Value ---- *)

let test_value_accessors () =
  Alcotest.(check int) "int" 42 (Value.get_int (Value.int 42));
  Alcotest.(check string) "str" "x" (Value.get_str (Value.str "x"));
  Alcotest.(check bool) "bool" true (Value.get_bool (Value.bool true));
  Alcotest.check_raises "wrong accessor raises"
    (Value.Type_mismatch "int expected, got \"x\"") (fun () ->
      ignore (Value.get_int (Value.str "x")))

let test_value_field () =
  let v = Value.record [ ("a", Value.int 1); ("b", Value.str "two") ] in
  Alcotest.(check int) "field a" 1 (Value.get_int (Value.field v "a"));
  Alcotest.check_raises "missing field" (Value.Type_mismatch "missing field z") (fun () ->
      ignore (Value.field v "z"))

let test_value_equal () =
  let v1 = Value.tuple [ Value.int 1; Value.list [ Value.str "a" ] ] in
  let v2 = Value.tuple [ Value.int 1; Value.list [ Value.str "a" ] ] in
  let v3 = Value.tuple [ Value.int 2; Value.list [ Value.str "a" ] ] in
  Alcotest.(check bool) "equal" true (Value.equal v1 v2);
  Alcotest.(check bool) "not equal" false (Value.equal v1 v3)

let test_value_pp () =
  let v =
    Value.record [ ("n", Value.int 3); ("opt", Value.option (Some (Value.bool false))) ]
  in
  Alcotest.(check string) "render" "{n=3; opt=some(false)}" (Value.to_string v)

(* ---- Vtype ---- *)

let test_vtype_check_builtin () =
  let ok t v = Alcotest.(check bool) "accepts" true (Result.is_ok (Vtype.check t v)) in
  let bad t v = Alcotest.(check bool) "rejects" true (Result.is_error (Vtype.check t v)) in
  ok Vtype.Tint (Value.int 1);
  bad Vtype.Tint (Value.str "1");
  ok (Vtype.Tlist Vtype.Tint) (Value.list [ Value.int 1; Value.int 2 ]);
  bad (Vtype.Tlist Vtype.Tint) (Value.list [ Value.int 1; Value.str "2" ]);
  ok (Vtype.Toption Vtype.Tstr) (Value.option None);
  ok (Vtype.Toption Vtype.Tstr) (Value.option (Some (Value.str "s")));
  bad (Vtype.Toption Vtype.Tstr) (Value.option (Some (Value.int 0)));
  ok Vtype.Tany (Value.tuple [ Value.int 1; Value.str "x" ]);
  ok
    (Vtype.Ttuple [ Vtype.Tint; Vtype.Tstr ])
    (Value.tuple [ Value.int 1; Value.str "x" ]);
  bad (Vtype.Ttuple [ Vtype.Tint; Vtype.Tstr ]) (Value.tuple [ Value.int 1 ]);
  ok
    (Vtype.Trecord [ ("a", Vtype.Tint) ])
    (Value.record [ ("a", Value.int 1) ]);
  bad (Vtype.Trecord [ ("a", Vtype.Tint) ]) (Value.record [ ("b", Value.int 1) ])

let test_vtype_named () =
  let t = Vtype.Tnamed "complex" in
  Alcotest.(check bool) "named accepts matching" true
    (Result.is_ok (Vtype.check t (Value.Named ("complex", Value.Unit))));
  Alcotest.(check bool) "named rejects other" true
    (Result.is_error (Vtype.check t (Value.Named ("other", Value.Unit))))

(* The first error's text surfaces through [check_message]'s callers and
   [Transmit.check_named], so it is pinned exactly. *)
let test_vtype_first_error_text () =
  let error label expected r =
    Alcotest.(check (result unit string)) label (Error expected) r
  in
  let stamp c o = Value.tuple [ Value.int c; Value.int o ] in
  error "tuple arity" "expected (int, string), got (1)"
    (Vtype.check (Vtype.Ttuple [ Vtype.Tint; Vtype.Tstr ]) (Value.tuple [ Value.int 1 ]));
  error "deep list element" "expected int, got \"x\""
    (Vtype.check
       (Vtype.Tlist (Vtype.Ttuple [ Vtype.Tstr; Vtype.Ttuple [ Vtype.Tint; Vtype.Tint ] ]))
       (Value.list
          [
            Value.tuple [ Value.str "a"; stamp 1 2 ];
            Value.tuple [ Value.str "b"; Value.tuple [ Value.int 3; Value.str "x" ] ];
            Value.tuple [ Value.str "c"; Value.tuple [ Value.str "y"; Value.int 4 ] ];
          ]));
  error "record missing a field" "missing field b"
    (Vtype.check
       (Vtype.Trecord [ ("a", Vtype.Tint); ("b", Vtype.Tstr) ])
       (Value.record [ ("a", Value.int 1); ("c", Value.str "x") ]));
  error "option's inner value" "expected int, got \"2\""
    (Vtype.check
       (Vtype.Toption (Vtype.Tlist Vtype.Tint))
       (Value.option (Some (Value.list [ Value.int 1; Value.str "2" ]))));
  error "named-type mismatch" "expected abstract type complex, got other"
    (Vtype.check (Vtype.Tlist (Vtype.Tnamed "complex"))
       (Value.list [ Value.Named ("complex", Value.Unit); Value.Named ("other", Value.Unit) ]));
  let reg = Transmit.registry () in
  Transmit.register reg ~type_name:"t" ~external_rep:(Vtype.Ttuple [ Vtype.Tint; Vtype.Tstr ]);
  error "through check_named" "t: external rep mismatch (expected (int, string), got (2))"
    (Transmit.check_named reg
       (Value.list
          [
            Value.Named ("t", Value.tuple [ Value.int 1; Value.str "ok" ]);
            Value.Named ("t", Value.tuple [ Value.int 2 ]);
          ]));
  let pt =
    [
      Vtype.signature "reserve" [ Vtype.Tstr; Vtype.Tint ];
      Vtype.signature "reserve" [ Vtype.Tstr ];
    ]
  in
  Alcotest.(check (result unit string)) "second overload matches" (Ok ())
    (Vtype.check_message pt ~command:"reserve" [ Value.str "p" ]);
  error "no overload matches" "arguments do not match any \"reserve\" signature of the port"
    (Vtype.check_message pt ~command:"reserve" [ Value.int 0; Value.int 3 ]);
  error "undeclared command" "port does not accept command \"cancel\""
    (Vtype.check_message pt ~command:"cancel" []);
  error "implicit failure signature" "arguments do not match any \"failure\" signature of the port"
    (Vtype.check_message pt ~command:"failure" [ Value.int 1 ])

let test_check_message () =
  let pt =
    [ Vtype.signature "reserve" [ Vtype.Tstr; Vtype.Tint ] ]
  in
  Alcotest.(check bool) "good message" true
    (Result.is_ok (Vtype.check_message pt ~command:"reserve" [ Value.str "p"; Value.int 3 ]));
  Alcotest.(check bool) "wrong arity" true
    (Result.is_error (Vtype.check_message pt ~command:"reserve" [ Value.str "p" ]));
  Alcotest.(check bool) "wrong type" true
    (Result.is_error (Vtype.check_message pt ~command:"reserve" [ Value.int 0; Value.int 3 ]));
  Alcotest.(check bool) "unknown command" true
    (Result.is_error (Vtype.check_message pt ~command:"unknown" []));
  Alcotest.(check bool) "implicit failure accepted" true
    (Result.is_ok (Vtype.check_message pt ~command:"failure" [ Value.str "reason" ]))

let test_check_message_wildcard () =
  let pt = [ Vtype.wildcard ] in
  Alcotest.(check bool) "wildcard accepts anything" true
    (Result.is_ok (Vtype.check_message pt ~command:"whatever" [ Value.int 1 ]))

(* ---- Codec ---- *)

let sample_port = Port_name.make ~node:1 ~guardian:2 ~index:3 ~uid:99
let sample_token = Token.seal ~secret:42L ~owner:7 ~obj:123

let roundtrip ?config v =
  match Codec.encode ?config v with
  | Error e -> Alcotest.failf "encode failed: %a" Codec.pp_error e
  | Ok s -> (
      match Codec.decode ?config s with
      | Error e -> Alcotest.failf "decode failed: %a" Codec.pp_error e
      | Ok v' -> v')

let test_codec_roundtrip_basics () =
  let values =
    [
      Value.Unit;
      Value.bool true;
      Value.bool false;
      Value.int 0;
      Value.int (-1);
      Value.int max_int;
      Value.int min_int;
      Value.real 3.14159;
      Value.real Float.infinity;
      Value.str "";
      Value.str "hello\x00world";
      Value.list [ Value.int 1; Value.str "x" ];
      Value.tuple [];
      Value.record [ ("k", Value.Unit) ];
      Value.option None;
      Value.option (Some (Value.int 5));
      Value.port sample_port;
      Value.token sample_token;
      Value.Named ("t", Value.int 1);
    ]
  in
  List.iter
    (fun v ->
      let v' = roundtrip v in
      if not (Value.equal v v') then
        Alcotest.failf "roundtrip mismatch: %a vs %a" Value.pp v Value.pp v')
    values

let test_codec_nan_roundtrip () =
  match roundtrip (Value.real Float.nan) with
  | Value.Real r -> Alcotest.(check bool) "NaN preserved" true (Float.is_nan r)
  | _ -> Alcotest.fail "expected real"

let test_codec_int_bounds () =
  let config = Codec.config_1979 in
  Alcotest.(check bool) "2^23-1 fits" true
    (Result.is_ok (Codec.encode ~config (Value.int 8_388_607)));
  Alcotest.(check bool) "-2^23 fits" true
    (Result.is_ok (Codec.encode ~config (Value.int (-8_388_608))));
  (match Codec.encode ~config (Value.int 8_388_608) with
  | Error (Codec.Int_out_of_bounds _) -> ()
  | _ -> Alcotest.fail "2^23 must be rejected");
  match Codec.encode ~config (Value.int (-8_388_609)) with
  | Error (Codec.Int_out_of_bounds _) -> ()
  | _ -> Alcotest.fail "-2^23-1 must be rejected"

let test_codec_string_limit () =
  let config = { Codec.config_1979 with max_string = 4 } in
  match Codec.encode ~config (Value.str "hello") with
  | Error (Codec.String_too_long 5) -> ()
  | _ -> Alcotest.fail "long string must be rejected"

let test_codec_message_limit () =
  let config = { Codec.default_config with max_message = 16 } in
  match Codec.encode ~config (Value.str (String.make 64 'x')) with
  | Error (Codec.Message_too_long _) -> ()
  | _ -> Alcotest.fail "long message must be rejected"

let test_codec_malformed_input () =
  (match Codec.decode "\xff" with
  | Error (Codec.Malformed _) -> ()
  | _ -> Alcotest.fail "unknown tag must fail");
  (match Codec.decode "" with
  | Error (Codec.Malformed _) -> ()
  | _ -> Alcotest.fail "empty must fail");
  (* Truncated: an Int tag with no payload. *)
  match Codec.decode "\x03" with
  | Error (Codec.Malformed _) -> ()
  | _ -> Alcotest.fail "truncated must fail"

let test_codec_adversarial_length () =
  (* A string tag followed by a varint length of 2^62-1: adding it to the
     read position wraps negative, so a sum-based bounds check would pass
     and the decoder would die in String.sub.  Must be a clean Malformed. *)
  let huge = "\x05\xff\xff\xff\xff\xff\xff\xff\xff\x3f" in
  (match Codec.decode huge with
  | Error (Codec.Malformed _) -> ()
  | Ok _ -> Alcotest.fail "absurd length accepted"
  | Error e -> Alcotest.failf "wrong error: %a" Codec.pp_error e);
  (* and a varint that decodes to a negative length outright *)
  let negative = "\x05\xff\xff\xff\xff\xff\xff\xff\xff\x7f" in
  match Codec.decode negative with
  | Error (Codec.Malformed _) -> ()
  | Ok _ -> Alcotest.fail "negative length accepted"
  | Error e -> Alcotest.failf "wrong error: %a" Codec.pp_error e

let test_codec_encoder_reuse () =
  let enc = Codec.encoder () in
  let values =
    [
      Value.Unit;
      Value.int 42;
      Value.str (String.make 300 'x');
      Value.record [ ("p", Value.port sample_port); ("t", Value.token sample_token) ];
      Value.str "";
    ]
  in
  (* same bytes as the one-shot API, across repeated reuse of one handle *)
  List.iter
    (fun v ->
      Alcotest.(check string) "encode_with = encode" (Codec.encode_exn v)
        (Codec.encode_with_exn enc v))
    values;
  (* an error must not poison the handle for the next message *)
  let small = Codec.encoder ~config:{ Codec.default_config with max_message = 8 } () in
  (match Codec.encode_with small (Value.str (String.make 64 'y')) with
  | Error (Codec.Message_too_long _) -> ()
  | _ -> Alcotest.fail "expected Message_too_long");
  Alcotest.(check string) "handle survives an error"
    (Codec.encode_exn Value.Unit)
    (Codec.encode_with_exn small Value.Unit)

let test_codec_trailing_bytes () =
  let s = Codec.encode_exn Value.Unit ^ "junk" in
  match Codec.decode s with
  | Error (Codec.Malformed _) -> ()
  | _ -> Alcotest.fail "trailing bytes must fail"

(* qcheck: random value generator and roundtrip. *)
let gen_value =
  QCheck2.Gen.(
    sized_size (int_range 0 4) (fix (fun self n ->
        let leaf =
          oneof
            [
              return Value.Unit;
              map (fun b -> Value.Bool b) bool;
              map (fun i -> Value.Int i) int;
              map (fun f -> Value.Real f) (float_range (-1e9) 1e9);
              map (fun s -> Value.Str s) (string_size (int_range 0 20));
              map (fun o -> Value.Option (Option.map (fun i -> Value.Int i) o)) (option int);
            ]
        in
        if n = 0 then leaf
        else
          oneof
            [
              leaf;
              map (fun l -> Value.Listv l) (list_size (int_range 0 4) (self (n - 1)));
              map (fun l -> Value.Tuple l) (list_size (int_range 0 4) (self (n - 1)));
              map
                (fun l -> Value.Record (List.mapi (fun i v -> ("f" ^ string_of_int i, v)) l))
                (list_size (int_range 0 4) (self (n - 1)));
              map (fun v -> Value.Named ("abs", v)) (self (n - 1));
            ])))

let prop_codec_roundtrip =
  QCheck2.Test.make ~name:"codec roundtrips arbitrary values" ~count:500 gen_value (fun v ->
      match Codec.encode v with
      | Error _ -> true (* size limits may trigger on big strings; fine *)
      | Ok s -> (
          match Codec.decode s with Ok v' -> Value.equal v v' | Error _ -> false))

(* Values that reach every check the encoder makes: ports and tokens, ints
   on both sides of the 24-bit bound, strings on both sides of 4 KiB. *)
let gen_wire_value =
  QCheck2.Gen.(
    let bound = 1 lsl 23 in
    let gen_int =
      oneof
        [
          int_range (-300) 300;
          int_range (bound - 2) (bound + 2);
          int_range (-bound - 2) (-bound + 2);
          int;
        ]
    in
    let gen_str =
      oneof [ string_size (int_range 0 20); string_size ~gen:printable (int_range 4090 4100) ]
    in
    let gen_port =
      map
        (fun (node, guardian, index, uid) ->
          Value.Portv (Port_name.make ~node ~guardian ~index ~uid))
        (quad gen_int small_nat small_nat gen_int)
    in
    let gen_token =
      map
        (fun (secret, owner, obj) -> Value.Tokenv (Token.seal ~secret ~owner ~obj))
        (triple int64 gen_int int)
    in
    sized_size (int_range 0 3) (fix (fun self n ->
        let leaf =
          oneof
            [
              return Value.Unit;
              map (fun b -> Value.Bool b) bool;
              map (fun i -> Value.Int i) gen_int;
              map (fun f -> Value.Real f) float;
              map (fun s -> Value.Str s) gen_str;
              return (Value.Option None);
              gen_port;
              gen_token;
            ]
        in
        if n = 0 then leaf
        else
          oneof
            [
              leaf;
              map (fun l -> Value.Listv l) (list_size (int_range 0 4) (self (n - 1)));
              map (fun l -> Value.Tuple l) (list_size (int_range 0 4) (self (n - 1)));
              map
                (fun l -> Value.Record (List.mapi (fun i v -> ("f" ^ string_of_int i, v)) l))
                (list_size (int_range 0 4) (self (n - 1)));
              map (fun v -> Value.Option (Some v)) (self (n - 1));
              map (fun v -> Value.Named ("abs", v)) (self (n - 1));
            ])))

(* [encoded_size] walks the value without writing it, so it must agree
   with [encode] on every outcome: the same size, or the same error from
   the same node. *)
let prop_codec_size_matches_encode (name, config) =
  QCheck2.Test.make ~name ~count:3000 gen_wire_value
    (fun v ->
      Codec.encoded_size ~config v = Result.map String.length (Codec.encode ~config v))

(* ---- Token ---- *)

let test_token_roundtrip () =
  let tok = Token.seal ~secret:0xdeadbeefL ~owner:5 ~obj:77 in
  Alcotest.(check int) "owner visible" 5 (Token.owner tok);
  Alcotest.(check (option int)) "owner unseals" (Some 77)
    (Token.unseal ~secret:0xdeadbeefL ~owner:5 tok)

let test_token_wrong_secret () =
  let tok = Token.seal ~secret:1L ~owner:5 ~obj:77 in
  Alcotest.(check (option int)) "wrong secret fails" None
    (Token.unseal ~secret:2L ~owner:5 tok)

let test_token_wrong_owner () =
  let tok = Token.seal ~secret:1L ~owner:5 ~obj:77 in
  Alcotest.(check (option int)) "wrong owner fails" None (Token.unseal ~secret:1L ~owner:6 tok)

let test_token_tamper () =
  let tok = Token.seal ~secret:1L ~owner:5 ~obj:77 in
  let owner, body, tag = Token.to_wire tok in
  let forged = Token.of_wire (owner, Int64.add body 1L, tag) in
  Alcotest.(check (option int)) "tampered body fails" None
    (Token.unseal ~secret:1L ~owner:5 forged)

let prop_token_seal_unseal =
  QCheck2.Test.make ~name:"token seal/unseal identity" ~count:300
    QCheck2.Gen.(triple int64 (int_range 0 10000) (int_range 0 1_000_000))
    (fun (secret, owner, obj) ->
      Token.unseal ~secret ~owner (Token.seal ~secret ~owner ~obj) = Some obj)

(* ---- Transmit ---- *)

module Up : Transmit.S with type t = string = struct
  type t = string

  let type_name = "upper"
  let external_rep = Vtype.Tstr
  let encode s = Value.str (String.uppercase_ascii s)
  let decode v = Value.get_str v
end

let test_transmit_roundtrip () =
  let v = Transmit.to_value (module Up) "hello" in
  Alcotest.(check bool) "tagged" true
    (match v with Value.Named ("upper", _) -> true | _ -> false);
  Alcotest.(check string) "decodes" "HELLO" (Transmit.of_value (module Up) v)

let test_transmit_name_mismatch () =
  let v = Value.Named ("other", Value.str "x") in
  match Transmit.of_value (module Up) v with
  | exception Transmit.Decode_failure _ -> ()
  | _ -> Alcotest.fail "name mismatch must fail"

module Liar : Transmit.S with type t = int = struct
  type t = int

  let type_name = "liar"
  let external_rep = Vtype.Tstr
  let encode i = Value.int i (* violates its own declared external rep *)
  let decode _ = 0
end

let test_transmit_bad_encoder_caught () =
  match Transmit.to_value (module Liar) 3 with
  | exception Transmit.Encode_failure _ -> ()
  | _ -> Alcotest.fail "invalid external rep must be caught"

let test_registry_conflict () =
  let reg = Transmit.registry () in
  Transmit.register reg ~type_name:"t" ~external_rep:Vtype.Tint;
  Transmit.register reg ~type_name:"t" ~external_rep:Vtype.Tint;
  Alcotest.check_raises "conflicting registration"
    (Invalid_argument
       "Transmit.register: t already registered with external rep int (got string)")
    (fun () -> Transmit.register reg ~type_name:"t" ~external_rep:Vtype.Tstr)

let test_check_named_deep () =
  let reg = Transmit.registry () in
  Transmit.register reg ~type_name:"t" ~external_rep:Vtype.Tint;
  let good = Value.list [ Value.Named ("t", Value.int 1) ] in
  let unknown = Value.list [ Value.Named ("u", Value.int 1) ] in
  let bad_shape = Value.list [ Value.Named ("t", Value.str "no") ] in
  Alcotest.(check bool) "good" true (Result.is_ok (Transmit.check_named reg good));
  Alcotest.(check bool) "unknown type" true (Result.is_error (Transmit.check_named reg unknown));
  Alcotest.(check bool) "bad shape" true (Result.is_error (Transmit.check_named reg bad_shape))

(* [Codec.bytes_at] against the equality of [s] with the bytes of
   [input] from [pos], on runs of every length around its eight-byte step,
   cut from [input] (mostly from [pos]) or from a copy differing in one
   byte, and reaching outside [input]. *)
let prop_bytes_at =
  QCheck2.Test.make ~name:"bytes_at is substring equality" ~count:2000
    QCheck2.Gen.(
      quad (string_size ~gen:(oneofl [ 'a'; 'b' ]) (int_range 0 40)) (int_range (-1) 40)
        (pair (int_range (-2) 42) (opt (int_range 0 40)))
        (int_range 0 42))
    (fun (input, flip, (pos, off), len) ->
      let source =
        if flip < 0 || flip >= String.length input then input
        else String.mapi (fun i c -> if i = flip then 'c' else c) input
      in
      let off = Int.min (Option.value off ~default:(Int.max 0 pos)) (String.length source) in
      let s = String.sub source off (Int.min len (String.length source - off)) in
      let n = String.length s in
      let expected =
        pos >= 0 && pos + n <= String.length input && String.equal (String.sub input pos n) s
      in
      Codec.bytes_at input pos s = expected)

let tests =
  [
    Alcotest.test_case "value accessors" `Quick test_value_accessors;
    Alcotest.test_case "value field" `Quick test_value_field;
    Alcotest.test_case "value equal" `Quick test_value_equal;
    Alcotest.test_case "value pp" `Quick test_value_pp;
    Alcotest.test_case "vtype builtins" `Quick test_vtype_check_builtin;
    Alcotest.test_case "vtype named" `Quick test_vtype_named;
    Alcotest.test_case "vtype first-error text" `Quick test_vtype_first_error_text;
    Alcotest.test_case "check_message" `Quick test_check_message;
    Alcotest.test_case "wildcard port type" `Quick test_check_message_wildcard;
    Alcotest.test_case "codec roundtrip basics" `Quick test_codec_roundtrip_basics;
    Alcotest.test_case "codec NaN" `Quick test_codec_nan_roundtrip;
    Alcotest.test_case "codec 24-bit bounds" `Quick test_codec_int_bounds;
    Alcotest.test_case "codec string limit" `Quick test_codec_string_limit;
    Alcotest.test_case "codec message limit" `Quick test_codec_message_limit;
    Alcotest.test_case "codec malformed" `Quick test_codec_malformed_input;
    Alcotest.test_case "codec adversarial length" `Quick test_codec_adversarial_length;
    Alcotest.test_case "codec encoder reuse" `Quick test_codec_encoder_reuse;
    Alcotest.test_case "codec trailing bytes" `Quick test_codec_trailing_bytes;
    QCheck_alcotest.to_alcotest prop_codec_roundtrip;
  ]
  @ List.map
      (fun config -> QCheck_alcotest.to_alcotest (prop_codec_size_matches_encode config))
      [
        ("encoded_size equals encode length", Codec.default_config);
        ("encoded_size equals encode, 1979 config", Codec.config_1979);
        ( "encoded_size equals encode, 2 KB limit",
          { Codec.default_config with max_message = 2048 } );
      ]
  @ [
    Alcotest.test_case "token roundtrip" `Quick test_token_roundtrip;
    Alcotest.test_case "token wrong secret" `Quick test_token_wrong_secret;
    Alcotest.test_case "token wrong owner" `Quick test_token_wrong_owner;
    Alcotest.test_case "token tamper" `Quick test_token_tamper;
    QCheck_alcotest.to_alcotest prop_token_seal_unseal;
    Alcotest.test_case "transmit roundtrip" `Quick test_transmit_roundtrip;
    Alcotest.test_case "transmit name mismatch" `Quick test_transmit_name_mismatch;
    Alcotest.test_case "lying encoder caught" `Quick test_transmit_bad_encoder_caught;
    Alcotest.test_case "registry conflict" `Quick test_registry_conflict;
    Alcotest.test_case "check_named deep" `Quick test_check_named_deep;
    QCheck_alcotest.to_alcotest prop_bytes_at;
  ]
