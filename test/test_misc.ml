(* Coverage fills: rendering paths, small helpers, and cross-module edges
   not exercised elsewhere. *)

open Dcp_wire
module Metrics = Dcp_sim.Metrics
module Trace = Dcp_sim.Trace
module Clock = Dcp_sim.Clock
module Topology = Dcp_net.Topology
module Link = Dcp_net.Link

let test_metrics_report_renders () =
  let r = Metrics.registry () in
  Metrics.incr (Metrics.counter r "events");
  Metrics.set_gauge (Metrics.gauge r "depth") 1.5;
  Metrics.observe (Metrics.histogram r "lat") 42.0;
  let rendered = Format.asprintf "%a" Metrics.pp_report r in
  List.iter
    (fun needle ->
      let found =
        let n = String.length rendered and m = String.length needle in
        let rec scan i =
          i + m <= n && (String.equal (String.sub rendered i m) needle || scan (i + 1))
        in
        scan 0
      in
      if not found then Alcotest.failf "report missing %S in %s" needle rendered)
    [ "events"; "depth"; "lat"; "p95" ]

let test_trace_clear () =
  let t = Trace.create ~capacity:4 () in
  Trace.record t ~at:1 ~category:"x" "one";
  Trace.clear t;
  Alcotest.(check int) "empty" 0 (Trace.size t);
  Alcotest.(check int) "total reset" 0 (Trace.total t);
  Trace.record t ~at:2 ~category:"x" "two";
  Alcotest.(check int) "usable after clear" 1 (Trace.size t)

let test_port_name_rendering_and_order () =
  let a = Port_name.make ~node:1 ~guardian:2 ~index:3 ~uid:4 in
  let b = Port_name.make ~node:1 ~guardian:2 ~index:3 ~uid:5 in
  Alcotest.(check string) "to_string" "port<n1.g2.p3#4>" (Port_name.to_string a);
  Alcotest.(check bool) "compare orders by uid last" true (Port_name.compare a b < 0);
  Alcotest.(check bool) "equal self" true (Port_name.equal a a)

let test_vtype_overloaded_command () =
  let pt =
    [ Vtype.signature "ping" []; Vtype.signature "ping" [ Vtype.Tint ] ]
  in
  Alcotest.(check bool) "nullary form" true
    (Result.is_ok (Vtype.check_message pt ~command:"ping" []));
  Alcotest.(check bool) "unary form" true
    (Result.is_ok (Vtype.check_message pt ~command:"ping" [ Value.int 7 ]));
  Alcotest.(check bool) "binary form rejected" true
    (Result.is_error (Vtype.check_message pt ~command:"ping" [ Value.int 7; Value.int 8 ]))

let test_codec_1979_config_shape () =
  let fits config i = Result.is_ok (Codec.encode ~config (Value.int i)) in
  Alcotest.(check bool) "24-bit max in" true (fits Codec.config_1979 8_388_607);
  Alcotest.(check bool) "24-bit min in" true (fits Codec.config_1979 (-8_388_608));
  Alcotest.(check bool) "24-bit max + 1 out" false (fits Codec.config_1979 8_388_608);
  Alcotest.(check bool) "63-bit config accepts max_int" true (fits Codec.default_config max_int)

let test_value_token_port_accessors () =
  let p = Port_name.make ~node:0 ~guardian:1 ~index:0 ~uid:2 in
  let tok = Token.seal ~secret:9L ~owner:1 ~obj:5 in
  Alcotest.(check bool) "port roundtrip" true (Port_name.equal p (Value.get_port (Value.port p)));
  Alcotest.(check bool) "token constructor" true
    (match Value.token tok with Value.Tokenv t -> Token.equal tok t | _ -> false)

let tests =
  [
    Alcotest.test_case "metrics report renders" `Quick test_metrics_report_renders;
    Alcotest.test_case "trace clear" `Quick test_trace_clear;
    Alcotest.test_case "port name rendering/order" `Quick test_port_name_rendering_and_order;
    Alcotest.test_case "overloaded command" `Quick test_vtype_overloaded_command;
    Alcotest.test_case "1979 codec bounds" `Quick test_codec_1979_config_shape;
    Alcotest.test_case "value port/token accessors" `Quick test_value_token_port_accessors;
  ]
