(* Message construction and the wire envelope. *)

open Dcp_wire
module Message = Dcp_core.Message

let port_a = Port_name.make ~node:1 ~guardian:2 ~index:0 ~uid:10
let port_b = Port_name.make ~node:3 ~guardian:4 ~index:1 ~uid:11

let test_make_and_fields () =
  let m = Message.make ~reply_to:port_b ~sent_at:42 "reserve" [ Value.int 7 ] in
  Alcotest.(check string) "command" "reserve" m.Message.command;
  Alcotest.(check bool) "reply port" true (m.Message.reply_to = Some port_b);
  Alcotest.(check int) "timestamp" 42 m.Message.sent_at;
  Alcotest.(check bool) "not failure" false (Message.is_failure m)

let test_failure_shape () =
  let f = Message.failure ~reason:"no room" ~sent_at:1 in
  Alcotest.(check bool) "is failure" true (Message.is_failure f);
  Alcotest.(check bool) "no reply port ever" true (f.Message.reply_to = None);
  Alcotest.(check bool) "reason in args" true (f.Message.args = [ Value.str "no room" ])

let test_envelope_roundtrip () =
  let m =
    Message.make ~reply_to:port_b ~sent_at:99 "op"
      [ Value.int 1; Value.str "x"; Value.list [ Value.bool true ] ]
  in
  let env = Message.envelope ~target:port_a m in
  (* through the codec, like the runtime does *)
  let decoded = Codec.decode_exn (Codec.encode_exn env) in
  match Message.of_envelope decoded with
  | Error e -> Alcotest.fail e
  | Ok (target, m') ->
      Alcotest.(check bool) "target" true (Port_name.equal target port_a);
      Alcotest.(check string) "command" "op" m'.Message.command;
      Alcotest.(check bool) "args" true (List.equal Value.equal m.Message.args m'.Message.args);
      Alcotest.(check bool) "reply" true (m'.Message.reply_to = Some port_b);
      Alcotest.(check int) "sent_at travels" 99 m'.Message.sent_at

let test_envelope_no_reply () =
  let m = Message.make ~sent_at:0 "fire" [] in
  match Message.of_envelope (Message.envelope ~target:port_a m) with
  | Ok (_, m') -> Alcotest.(check bool) "no reply port" true (m'.Message.reply_to = None)
  | Error e -> Alcotest.fail e

let test_envelope_malformed () =
  (match Message.of_envelope (Value.int 3) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "an int is not an envelope");
  match Message.of_envelope (Value.record [ ("target", Value.int 1) ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing fields must fail"

let test_pp () =
  let m = Message.make ~reply_to:port_b ~sent_at:0 "reserve" [ Value.int 12; Value.str "bob" ] in
  Alcotest.(check string) "rendering"
    "reserve(12, \"bob\") replyto port<n3.g4.p1#11>"
    (Format.asprintf "%a" Message.pp m)

let prop_envelope_roundtrip =
  QCheck2.Test.make ~name:"envelope roundtrips arbitrary argument vectors" ~count:200
    QCheck2.Gen.(
      pair (string_size (int_range 1 12)) (list_size (int_range 0 6) (oneof [ map (fun i -> Value.Int i) int; map (fun s -> Value.Str s) (string_size (int_range 0 10)) ])))
    (fun (command, args) ->
      let m = Message.make ~sent_at:5 command args in
      match Message.of_envelope (Message.envelope ~target:port_a m) with
      | Ok (_, m') ->
          String.equal m'.Message.command command
          && List.equal Value.equal m'.Message.args args
      | Error _ -> false)

(* ---- the runtime's writer and reader against the Record path ---- *)

(* Ints near the 24-bit bound, strings near 4 KiB (config_1979's
   max_string), commands of both kinds, nested values, ports and tokens. *)
let gen_message ~args_gen ~str_gen =
  QCheck2.Gen.(
    let bound = 1 lsl 23 in
    let gen_int =
      oneof [ int_range (-300) 300; int_range (bound - 2) (bound + 2); int_range (-bound - 2) (-bound + 2); int ]
    in
    let gen_port =
      map
        (fun (node, guardian, index, uid) -> Port_name.make ~node ~guardian ~index ~uid)
        (quad gen_int small_nat small_nat gen_int)
    in
    map
      (fun ((target, command), (reply_to, sent_at, args)) ->
        (target, Message.make ?reply_to ~sent_at command args))
      (pair (pair gen_port str_gen)
         (triple (option gen_port) gen_int (list_size (int_range 0 5) args_gen))))

let gen_full =
  gen_message ~args_gen:Test_wire.gen_wire_value
    ~str_gen:
      QCheck2.Gen.(
        oneof [ string_size (int_range 0 12); string_size ~gen:printable (int_range 4090 4100) ])

(* Small bodies, for the mutations at every offset. *)
let gen_small =
  gen_message
    ~args_gen:
      QCheck2.Gen.(
        oneof
          [
            Test_wire.gen_value;
            return (Value.port port_a);
            return (Value.token (Token.seal ~secret:5L ~owner:2 ~obj:9));
          ])
    ~str_gen:QCheck2.Gen.(string_size (int_range 0 12))

let wire_configs =
  [
    ("default", Codec.default_config);
    ("1979", Codec.config_1979);
    ("256-byte messages", { Codec.default_config with max_message = 256 });
  ]

(* The send time is exempt from [int_bits]: it is the runtime's clock,
   not a value the program transmits.  The record path bounds every int,
   so where it refuses a message for an int and the arguments are in
   bound, the refused int is the send time, and the runtime's writer and
   reader are held to the record path without the bound. *)
let unbounded config = { config with Codec.int_bits = 63 }

let args_in_bound ~config msg =
  Result.is_ok (Codec.encoded_size ~config (Value.list msg.Message.args))

let prop_writer_matches_record_path (name, config) =
  let enc = Codec.encoder ~config () in
  QCheck2.Test.make ~name:("to_wire = encode_with envelope, " ^ name) ~count:500 gen_full
    (fun (target, msg) ->
      let record config = Codec.encode_with (Codec.encoder ~config ()) (Message.envelope ~target msg) in
      Message.to_wire enc ~target msg
      =
      match record config with
      | Error (Codec.Int_out_of_bounds _) when args_in_bound ~config msg ->
          record (unbounded config)
      | written -> written)

(* The reader's results compared field by field, so a NaN argument
   equals itself. *)
let same_envelope (t, m) (t', m') =
  Port_name.equal t t'
  && String.equal m.Message.command m'.Message.command
  && List.equal Value.equal m.Message.args m'.Message.args
  && Option.equal Port_name.equal m.Message.reply_to m'.Message.reply_to
  && Int.equal m.Message.sent_at m'.Message.sent_at

let record_read ~config body =
  let read config = Result.map Message.of_envelope (Codec.decode ~config body) in
  match read config with
  | Error (Codec.Int_out_of_bounds _) as refused -> (
      match read (unbounded config) with
      | Ok (Ok (_, msg)) as read when args_in_bound ~config msg -> read
      | Ok _ | Error _ -> refused)
  | read -> read

(* A body in the envelope's layout reads as the record path reads it,
   error included. *)
let reads_like_record_path ~config body =
  match (Message.of_wire ~config body, record_read ~config body) with
  | Ok read, Ok (Ok read') -> same_envelope read read'
  | Error e, Error e' -> e = e'
  | (Ok _ | Error _), _ -> false

(* Whatever [of_wire] accepts, the record path reads alike. *)
let accepted_like_record_path ~config body =
  match Message.of_wire ~config body with
  | Error _ -> true
  | Ok read -> (
      match record_read ~config body with
      | Ok (Ok read') -> same_envelope read read'
      | Ok (Error _) | Error _ -> false)

let record_body (target, msg) = Codec.encode_exn (Message.envelope ~target msg)

let prop_reader_matches_record_path (name, config) =
  QCheck2.Test.make ~name:("of_wire = decode + of_envelope, " ^ name) ~count:500 gen_full
    (fun m -> reads_like_record_path ~config (record_body m))

(* Every single-byte change, every truncation and a trailing byte: the
   reader accepts what the writer writes, and nothing it accepts reads
   otherwise than on the record path. *)
let prop_reader_matches_on_mutations =
  QCheck2.Test.make ~name:"of_wire = decode + of_envelope on the mutated bodies it accepts"
    ~count:300
    QCheck2.Gen.(pair gen_small (int_range 1 255))
    (fun (((target, msg) as m), mask) ->
      let body = record_body m in
      let config = Codec.config_1979 in
      let flipped i =
        String.mapi (fun j c -> if i = j then Char.chr (Char.code c lxor mask) else c) body
      in
      (match Message.to_wire (Codec.encoder ~config ()) ~target msg with
      | Ok written -> Result.is_ok (Message.of_wire ~config written)
      | Error _ -> true)
      && List.for_all
           (fun i ->
             accepted_like_record_path ~config (flipped i)
             && accepted_like_record_path ~config (String.sub body 0 i))
           (List.init (String.length body) Fun.id)
      && Result.is_error (Message.of_wire ~config (body ^ "\000")))

(* One reader: a body outside the layout [to_wire] writes is malformed,
   however the record path would read it; a bound exceeded inside the
   layout gives the record path's error. *)
let test_reader_off_layout () =
  let target = port_a in
  let msg = Message.make ~reply_to:port_b ~sent_at:7 "op" [ Value.int 1; Value.str "x" ] in
  let fields =
    match Message.envelope ~target msg with Value.Record f -> f | _ -> assert false
  in
  let default = Codec.default_config in
  let malformed what body =
    match Message.of_wire ~config:default body with
    | Error (Codec.Malformed _) -> ()
    | Error e -> Alcotest.failf "%s: %a" what Codec.pp_error e
    | Ok _ -> Alcotest.failf "%s read as an envelope" what
  in
  let replace name v = List.map (fun (n, x) -> (n, if n = name then v else x)) fields in
  malformed "reordered fields" (Codec.encode_exn (Value.record (List.rev fields)));
  malformed "a sixth field" (Codec.encode_exn (Value.record (fields @ [ ("extra", Value.Unit) ])));
  malformed "a field renamed"
    (Codec.encode_exn
       (Value.record (List.map (fun (n, v) -> ((if n = "args" then "argz" else n), v)) fields)));
  malformed "a non-port reply"
    (Codec.encode_exn (Value.record (replace "reply" (Value.option (Some (Value.int 3))))));
  malformed "a string where the args go"
    (Codec.encode_exn (Value.record (replace "args" (Value.str "no"))));
  malformed "not a record" (Codec.encode_exn (Value.list (List.map snd fields)));
  let body = Codec.encode_exn (Value.record fields) in
  malformed "trailing bytes" (body ^ "x");
  let bound what config body =
    match (Message.of_wire ~config body, Codec.decode ~config body) with
    | Error e, Error e' when e = e' -> ()
    | Error e, _ -> Alcotest.failf "%s: %a, not the record path's error" what Codec.pp_error e
    | Ok _, _ -> Alcotest.failf "%s read as an envelope" what
  in
  (* The send time alone is exempt from the bound: the record path
     refuses it, and [of_wire] reads it. *)
  let late = Codec.encode_exn (Message.envelope ~target { msg with Message.sent_at = 1 lsl 23 }) in
  (match (Message.of_wire ~config:Codec.config_1979 late, Codec.decode ~config:Codec.config_1979 late) with
  | Ok (_, m), Error (Codec.Int_out_of_bounds _) ->
      Alcotest.(check int) "sent_at past the 24-bit bound read" (1 lsl 23) m.Message.sent_at
  | Ok _, _ -> Alcotest.fail "the record path read sent_at past the 24-bit bound"
  | Error e, _ -> Alcotest.failf "sent_at past the 24-bit bound: %a" Codec.pp_error e);
  Alcotest.(check bool) "and written as without the bound" true
    (Message.to_wire (Codec.encoder ~config:Codec.config_1979 ()) ~target
       { msg with Message.sent_at = 1 lsl 23 }
    = Ok late);
  bound "an argument past the 24-bit bound" Codec.config_1979
    (Codec.encode_exn
       (Message.envelope ~target { msg with Message.args = [ Value.int (1 lsl 23) ] }));
  bound "a command past max_string" Codec.config_1979
    (Codec.encode_exn (Message.envelope ~target { msg with Message.command = String.make 4097 'c' }));
  bound "past max_message" { default with max_message = String.length body - 1 } body;
  match Message.of_wire ~config:default body with
  | Ok (t, m) ->
      Alcotest.(check bool) "target" true (Port_name.equal t target);
      Alcotest.(check string) "command" "op" m.Message.command;
      Alcotest.(check bool) "reply" true (m.Message.reply_to = Some port_b);
      Alcotest.(check bool) "the record path's read" true
        (reads_like_record_path ~config:default body)
  | Error e -> Alcotest.failf "%a" Codec.pp_error e

let tests =
  [
    Alcotest.test_case "make + fields" `Quick test_make_and_fields;
    Alcotest.test_case "failure shape" `Quick test_failure_shape;
    Alcotest.test_case "envelope roundtrip" `Quick test_envelope_roundtrip;
    Alcotest.test_case "envelope no reply" `Quick test_envelope_no_reply;
    Alcotest.test_case "envelope malformed" `Quick test_envelope_malformed;
    Alcotest.test_case "pp" `Quick test_pp;
    QCheck_alcotest.to_alcotest prop_envelope_roundtrip;
    Alcotest.test_case "reader off the envelope layout" `Quick test_reader_off_layout;
    QCheck_alcotest.to_alcotest prop_reader_matches_on_mutations;
  ]
  @ List.concat_map
      (fun config ->
        [
          QCheck_alcotest.to_alcotest (prop_writer_matches_record_path config);
          QCheck_alcotest.to_alcotest (prop_reader_matches_record_path config);
        ])
      wire_configs
