open Dcp_wire
module Runtime = Dcp_core.Runtime
module Message = Dcp_core.Message
module Port = Dcp_core.Port
module Clock = Dcp_sim.Clock

let data_signature = Vtype.signature "odata" [ Vtype.Tint; Vtype.Tint; Vtype.Tany ]

(* ------------------------------------------------------------------ *)
(* Receiver                                                             *)
(* ------------------------------------------------------------------ *)

type receiver = {
  rctx : Runtime.ctx;
  rport : Port.t;
  buffer : (int, Value.t) Hashtbl.t;  (** seq -> payload, seq >= expected *)
  mutable expected : int;
  mutable delivered : int;
}

let receiver ctx ?(capacity = 64) () =
  {
    rctx = ctx;
    rport = Runtime.new_port ctx ~capacity [ data_signature ];
    buffer = Hashtbl.create 32;
    expected = 0;
    delivered = 0;
  }

let receiver_port r = Port.name r.rport

let accept r msg =
  match (msg.Message.command, msg.Message.args) with
  | "odata", [ Value.Int _chan; Value.Int seq; payload ] ->
      if seq >= r.expected then Hashtbl.replace r.buffer seq payload;
      (* the cumulative ack reflects the longest in-order prefix present *)
      let rec advance_probe n = if Hashtbl.mem r.buffer n then advance_probe (n + 1) else n in
      let next_expected = advance_probe r.expected in
      (match msg.Message.reply_to with
      | Some ack_port ->
          Runtime.send r.rctx ~to_:ack_port "oack"
            [ Value.int _chan; Value.int next_expected ]
      | None -> ())
  | _ -> ()

let rec recv r ?timeout () =
  match Hashtbl.find_opt r.buffer r.expected with
  | Some payload ->
      Hashtbl.remove r.buffer r.expected;
      r.expected <- r.expected + 1;
      r.delivered <- r.delivered + 1;
      Some payload
  | None -> (
      let started = Runtime.ctx_now r.rctx in
      match Runtime.receive r.rctx ?timeout [ r.rport ] with
      | `Timeout -> None
      | `Msg (_, msg) ->
          accept r msg;
          let timeout =
            Option.map
              (fun t -> Int.max 0 (t - Clock.diff (Runtime.ctx_now r.rctx) started))
              timeout
          in
          recv r ?timeout ())


(* ------------------------------------------------------------------ *)
(* Sender                                                               *)
(* ------------------------------------------------------------------ *)

type sender = {
  sctx : Runtime.ctx;
  channel : int;
  dest : Port_name.t;
  ack_port : Port.t;
  window : int;
  retransmit_every : Clock.time;
  unacked : (int, Value.t) Hashtbl.t;
  mutable next_seq : int;
  mutable transmissions : int;
  mutable closed : bool;
}

let transmit s seq payload =
  s.transmissions <- s.transmissions + 1;
  Runtime.send s.sctx ~to_:s.dest ~reply_to:(Port.name s.ack_port) "odata"
    [ Value.int s.channel; Value.int seq; payload ]

let handle_ack s msg =
  match (msg.Message.command, msg.Message.args) with
  | "oack", [ Value.Int chan; Value.Int next_expected ] when chan = s.channel ->
      Hashtbl.iter
        (fun seq _ -> if seq < next_expected then Hashtbl.remove s.unacked seq)
        (Hashtbl.copy s.unacked)
  | _ -> ()  (* stale acks of other channels, failure notices: ignored *)

(* Drain whatever acknowledgements are waiting without blocking beyond
   [timeout]. *)
let rec pump_acks s ~timeout =
  match Runtime.receive s.sctx ~timeout [ s.ack_port ] with
  | `Timeout -> ()
  | `Msg (_, msg) ->
      handle_ack s msg;
      pump_acks s ~timeout:0

let retransmit_loop s () =
  let rec loop () =
    if not s.closed then begin
      Runtime.sleep s.sctx s.retransmit_every;
      (* Retransmit in sequence order: the receiver sees a deterministic
         packet stream for a given unacked set, whatever the hash layout. *)
      Hashtbl.fold (fun seq payload acc -> (seq, payload) :: acc) s.unacked []
      |> List.sort (fun (s1, _) (s2, _) -> Int.compare s1 s2)
      |> List.iter (fun (seq, payload) -> transmit s seq payload);
      loop ()
    end
  in
  loop ()

let connect ctx ~to_ ?(window = 16) ?(retransmit_every = Clock.ms 100) () =
  if window <= 0 then invalid_arg "Ordered.connect: window must be positive";
  let s =
    {
      sctx = ctx;
      (* stamped into every data packet, so minted deterministically *)
      channel = Runtime.ctx_mint_id ctx;
      dest = to_;
      ack_port = Runtime.new_port ctx ~capacity:256 [ Vtype.wildcard ];
      window;
      retransmit_every;
      unacked = Hashtbl.create 32;
      next_seq = 0;
      transmissions = 0;
      closed = false;
    }
  in
  ignore
    (Runtime.spawn ctx
       ~name:(Printf.sprintf "ordered.retransmit.%d" s.channel)
       (retransmit_loop s));
  s

let send s payload =
  if s.closed then invalid_arg "Ordered.send: channel is closed";
  (* Block while the window is full, living off acknowledgements. *)
  while Hashtbl.length s.unacked >= s.window do
    pump_acks s ~timeout:s.retransmit_every
  done;
  let seq = s.next_seq in
  s.next_seq <- seq + 1;
  Hashtbl.replace s.unacked seq payload;
  transmit s seq payload;
  (* opportunistically eat pending acks to keep the window fresh *)
  pump_acks s ~timeout:0

let flush s ~timeout =
  let deadline = Clock.add (Runtime.ctx_now s.sctx) timeout in
  let rec wait () =
    if Hashtbl.length s.unacked = 0 then true
    else
      let remaining = Clock.diff deadline (Runtime.ctx_now s.sctx) in
      if remaining <= 0 then false
      else begin
        pump_acks s ~timeout:(Int.min remaining s.retransmit_every);
        wait ()
      end
  in
  wait ()

let close s = s.closed <- true
let in_flight s = Hashtbl.length s.unacked
let messages_sent s = s.transmissions
