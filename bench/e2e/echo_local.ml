(* echo_local: the send -> deliver hot path with nothing else in the way.

   One node on a perfect link; [pairs] client/echo guardian pairs.  Each
   client sends [pings] pings, each carrying its round and a 32-byte
   string, and waits up to 1 s for the pong before the next (a closed
   loop).  Nothing leaves the node and nothing is written to storage, so
   the run is [Runtime.send], the trace, the codec, the engine heap and the
   ports. *)

open Dcp_wire
module Runtime = Dcp_core.Runtime
module Message = Dcp_core.Message
module Port = Dcp_core.Port
module Clock = Dcp_sim.Clock
module Rng = Dcp_rng.Rng

let size ~smoke = if smoke then (50, 20) else (1000, 40)
let payload_bytes = 32
let timeout = Clock.s 1

(* Envelopes kept for the wire replay: the first [sample] pings and the
   pongs answering them. *)
let sample = 1000

let round_and_text = [ Vtype.Tint; Vtype.Tstr ]

let ping_type =
  [ Vtype.signature "ping" round_and_text ~replies:[ Vtype.reply "pong" round_and_text ] ]

let pong_type = [ Vtype.signature "pong" round_and_text ]

let setup ~seed ~smoke tr =
  let pairs, pings = size ~smoke in
  let rng = Rng.create ~seed in
  let payloads = Array.init pairs (fun _ -> Workload.payload rng payload_bytes) in
  let world =
    Runtime.create_world ~seed:(Rng.int rng 1_000_000_000)
      ~topology:(Dcp_net.Topology.full_mesh ~n:1 Dcp_net.Link.perfect)
      ()
  in
  let k_run = Span.kind tr "sim.run" Span.Host in
  let k_send = Span.kind tr "core.send" Span.Host in
  let k_receive = Span.kind tr "core.receive" Span.Virtual in
  let envelopes = ref [] in
  let keep ctx req ~to_ ?reply_to command args =
    if Span.enabled tr && req < sample then
      envelopes := Workload.envelope ctx ~to_ ?reply_to command args :: !envelopes
  in
  let timed_receive ctx ?timeout ports =
    let start = Runtime.ctx_now ctx in
    let r = Runtime.receive ctx ?timeout ports in
    let req =
      match r with
      | `Msg (_, { Message.args = Value.Int req :: _; _ }) -> req
      | `Msg _ | `Timeout -> -1
    in
    Span.virtual_span tr k_receive ~req ~start ~stop:(Runtime.ctx_now ctx);
    r
  in
  let echo =
    {
      Runtime.def_name = "echo";
      provides = [ (ping_type, 16) ];
      init =
        (fun ctx _ ->
          let port = Runtime.port ctx 0 in
          let rec loop () =
            (match timed_receive ctx [ port ] with
            | `Msg (_, { Message.args = [ Value.Int req; _ ] as args; reply_to = Some reply; _ }) ->
                keep ctx req ~to_:reply "pong" args;
                Span.enter tr k_send ~req;
                Runtime.send ctx ~to_:reply "pong" args;
                Span.leave tr
            | `Msg _ | `Timeout -> ());
            loop ()
          in
          loop ());
      recover = None;
    }
  in
  let ops = ref 0 and failed = ref 0 and violations = ref [] in
  let wrong c round what =
    Workload.violation violations (Printf.sprintf "client %d round %d: %s" c round what)
  in
  let latencies = Array.make (pairs * pings) 0 in
  let client =
    {
      Runtime.def_name = "client";
      provides = [];
      init =
        (fun ctx args ->
          match args with
          | [ Value.Int c; Value.Portv echo ] ->
              let reply = Runtime.new_port ctx pong_type in
              let reply_name = Port.name reply in
              let text = Value.str payloads.(c) in
              for round = 0 to pings - 1 do
                let req = (c * pings) + round in
                let ping = [ Value.int req; text ] in
                keep ctx req ~to_:echo ~reply_to:reply_name "ping" ping;
                let sent = Runtime.ctx_now ctx in
                Span.enter tr k_send ~req;
                Runtime.send ctx ~to_:echo ~reply_to:reply_name "ping" ping;
                Span.leave tr;
                (match timed_receive ctx ~timeout [ reply ] with
                | `Msg (_, { Message.args = [ Value.Int r; Value.Str s ]; _ }) ->
                    if r <> req || not (String.equal s payloads.(c)) then
                      wrong c round "the pong does not echo its ping"
                | `Msg (_, msg) -> wrong c round ("unexpected " ^ msg.Message.command)
                | `Timeout -> incr failed);
                latencies.(req) <- Runtime.ctx_now ctx - sent;
                incr ops
              done
          | _ -> invalid_arg "client: expected (index, echo port)");
      recover = None;
    }
  in
  Runtime.register_def world echo;
  Runtime.register_def world client;
  let echos =
    Array.init pairs (fun _ ->
        let g = Runtime.create_guardian world ~at:0 ~def_name:"echo" ~args:[] in
        Value.port (List.hd (Runtime.guardian_ports g)))
  in
  Runtime.run world;
  Array.iteri
    (fun c echo ->
      ignore (Runtime.create_guardian world ~at:0 ~def_name:"client" ~args:[ Value.int c; echo ]))
    echos;
  fun () ->
    let before = Workload.tally world in
    Span.enter tr k_run ~req:(-1);
    Runtime.run world;
    Span.leave tr;
    let after = Workload.tally world in
    Workload.of_tallies ~before ~after ~ops:!ops ~failed:!failed ~violations:!violations
      ~latencies ~envelopes:!envelopes ()

let workload = { Workload.name = "echo_local"; setup }
