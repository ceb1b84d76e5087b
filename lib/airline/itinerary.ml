open Dcp_wire
module Runtime = Dcp_core.Runtime
module Message = Dcp_core.Message
module Store = Dcp_stable.Store
module Rpc = Dcp_primitives.Rpc
module Two_phase = Dcp_primitives.Two_phase
module Clock = Dcp_sim.Clock

let def_name = "itinerary"

let leg_list = Vtype.Tlist (Vtype.Ttuple [ Vtype.Tint; Vtype.Tint ])

let port_type =
  [
    Rpc.request_signature "book_trip" [ Vtype.Tstr; leg_list ]
      ~replies:[ Vtype.reply "booked" []; Vtype.reply "unavailable" [ Vtype.Tstr ] ];
    Rpc.request_signature "book_naive" [ Vtype.Tstr; leg_list ]
      ~replies:
        [
          Vtype.reply "booked" [];
          Vtype.reply "stranded" [ Vtype.Tint ];
          Vtype.reply "unavailable" [ Vtype.Tstr ];
        ];
  ]

let parse_legs legs =
  List.map
    (fun v ->
      match v with
      | Value.Tuple [ Value.Int flight; Value.Int date ] -> (flight, date)
      | _ -> invalid_arg "itinerary: malformed leg")
    legs

let config_key = "_directory"

let parse_directory args =
  List.map
    (fun v ->
      match v with
      | Value.Tuple [ Value.Int flight; Value.Portv port ] -> (flight, port)
      | _ -> invalid_arg "itinerary: malformed directory entry")
    args

(* Atomic path: one 2PC across the legs' flight guardians. *)
let book_trip ctx directory ~txid ~passenger legs =
  let lookup flight =
    match List.assoc_opt flight directory with
    | Some port -> Ok port
    | None -> Error (Printf.sprintf "no such flight %d" flight)
  in
  let rec build acc = function
    | [] -> Ok (List.rev acc)
    | (flight, date) :: rest -> (
        match lookup flight with
        | Error e -> Error e
        | Ok port ->
            build ((port, Value.tuple [ Value.str passenger; Value.int date ]) :: acc) rest)
  in
  match build [] legs with
  | Error reason -> ("unavailable", [ Value.str reason ])
  | Ok participants -> (
      match Two_phase.coordinate ctx ~txid ~participants with
      | Two_phase.Committed -> ("booked", [])
      | Two_phase.Aborted reason -> ("unavailable", [ Value.str reason ]))

(* Baseline: sequential plain reserves, no atomicity. *)
let book_naive ctx directory ~passenger legs =
  let reserve flight date =
    match List.assoc_opt flight directory with
    | None -> `Failed "no such flight"
    | Some port -> (
        match
          Rpc.call ctx ~to_:port ~timeout:(Clock.ms 500) ~attempts:3 "reserve"
            [ Value.str passenger; Value.int date ]
        with
        | Rpc.Reply (("ok" | "pre_reserved"), _) -> `Ok
        | Rpc.Reply (command, _) -> `Failed command
        | Rpc.Failure_msg reason -> `Failed reason
        | Rpc.Timeout -> `Failed "timeout")
  in
  let rec go booked = function
    | [] -> ("booked", [])
    | (flight, date) :: rest -> (
        match reserve flight date with
        | `Ok -> go (booked + 1) rest
        | `Failed reason ->
            if booked = 0 then ("unavailable", [ Value.str reason ])
            else ("stranded", [ Value.int booked ]))
  in
  go 0 legs

(* A coordinator that logged a decision but exhausted its ack rounds (the
   participant was down or partitioned for every round) leaves that
   participant prepared — holding seats — until somebody re-announces.
   Recovery covers the crash case; this covers the no-crash case: whenever
   the intake loop idles, re-announce any still-unacked decisions from a
   side process so prepared participants are eventually released.

   Looking for such decisions sorts and decodes the whole store, so the
   loop looks only when the answer can differ from its last look: while a
   2PC trip is in flight (its coordinator writes decision records), or
   once a trip or a redelivery has finished.  The look has no side
   effects, so skipping one that would repeat the last answer changes
   nothing.  A fresh [serve] (after recovery, too) starts [stale]. *)
type idle = {
  mutable trips : int;  (** 2PC bookings in flight *)
  mutable stale : bool;  (** a decision may have changed since the last look *)
  mutable redelivering : bool;
}

let redeliver_when_idle ctx idle =
  if (not idle.redelivering) && (idle.trips > 0 || idle.stale) then begin
    idle.stale <- false;
    if Two_phase.pending_decisions (Runtime.store ctx) > 0 then begin
      idle.redelivering <- true;
      ignore
        (Runtime.spawn ctx ~name:"redeliver" (fun () ->
             ignore (Two_phase.redeliver_decisions ctx);
             idle.redelivering <- false;
             idle.stale <- true))
    end
  end

let serve ctx directory =
  let request_port = Runtime.port ctx 0 in
  let idle = { trips = 0; stale = true; redelivering = false } in
  let rec loop () =
    (match Runtime.receive ctx ~timeout:(Clock.s 2) [ request_port ] with
    | `Timeout -> redeliver_when_idle ctx idle
    | `Msg (_, msg) -> (
        match (msg.Message.command, msg.Message.args, msg.Message.reply_to) with
        | "book_trip", [ Value.Int id; Value.Str passenger; Value.Listv legs ], reply ->
            (* Each booking runs in its own process so slow prepares don't
               block the intake loop (Fig. 1c style). *)
            idle.trips <- idle.trips + 1;
            ignore
              (Runtime.spawn ctx ~name:(Printf.sprintf "trip.%d" id) (fun () ->
                   let command, args =
                     book_trip ctx directory ~txid:id ~passenger (parse_legs legs)
                   in
                   idle.trips <- idle.trips - 1;
                   idle.stale <- true;
                   match reply with
                   | Some reply -> Runtime.send ctx ~to_:reply command (Value.int id :: args)
                   | None -> ()))
        | "book_naive", [ Value.Int id; Value.Str passenger; Value.Listv legs ], reply ->
            ignore
              (Runtime.spawn ctx ~name:(Printf.sprintf "trip.naive.%d" id) (fun () ->
                   let command, args = book_naive ctx directory ~passenger (parse_legs legs) in
                   match reply with
                   | Some reply -> Runtime.send ctx ~to_:reply command (Value.int id :: args)
                   | None -> ()))
        | _ -> ()));
    loop ()
  in
  loop ()

let def : Runtime.def =
  {
    Runtime.def_name;
    provides = [ (port_type, 256) ];
    init =
      (fun ctx args ->
        Store.set (Runtime.store ctx) ~key:config_key (Codec.encode_exn (Value.list args));
        serve ctx (parse_directory args));
    recover =
      Some
        (fun ctx ->
          match Store.get (Runtime.store ctx) ~key:config_key with
          | None -> Runtime.self_destruct ctx
          | Some encoded ->
              (* Finish announcing any decision the crash interrupted, then
                 serve new trips.  In-flight *undecided* bookings died with
                 their processes: their participants hold seats until a
                 presumed-abort timeout would release them; clients retry
                 with the same request id and the idempotent participant
                 state answers consistently. *)
              ignore (Two_phase.redeliver_decisions ctx);
              serve ctx (parse_directory (Value.get_list (Codec.decode_exn encoded))));
  }

let create world ~at ~directory () =
  if Runtime.find_def world def_name = None then Runtime.register_def world def;
  let args =
    List.map (fun (flight, port) -> Value.tuple [ Value.int flight; Value.port port ]) directory
  in
  let g = Runtime.create_guardian world ~at ~def_name ~args in
  List.hd (Runtime.guardian_ports g)
