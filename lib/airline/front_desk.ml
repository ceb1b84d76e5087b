open Dcp_wire
module Runtime = Dcp_core.Runtime
module Message = Dcp_core.Message
module Port = Dcp_core.Port
module Rpc = Dcp_primitives.Rpc
module Clock = Dcp_sim.Clock

let def_name = "front_desk"

type config = {
  regionals : Port_name.t array;
  request_timeout : Clock.time;
  idle_timeout : Clock.time;
}

let regional_for config flight =
  config.regionals.(flight mod Array.length config.regionals)

(* One entry of the transaction history (the paper's [transhistory]
   abstraction): what was asked, and what became of it. *)
type history_entry = { op : [ `Reserve | `Cancel ]; flight : int; date : int }

type trans_state = {
  passenger : string;
  mutable history : history_entry list;  (** newest first; successful reserves *)
  mutable deferred : (int * int) list;  (** (flight, date) cancels to run at finish *)
}

let do_reserve ctx config state ~flight ~date =
  match
    Rpc.call ctx
      ~to_:(regional_for config flight)
      ~timeout:config.request_timeout "reserve"
      [ Value.int flight; Value.str state.passenger; Value.int date ]
  with
  | Rpc.Timeout -> ("failure", [ Value.str "can't communicate" ])
  | Rpc.Failure_msg reason -> ("failure", [ Value.str reason ])
  | Rpc.Reply (command, _) ->
      if String.equal command "ok" then
        state.history <- { op = `Reserve; flight; date } :: state.history;
      (command, [])

let do_deferred_cancels ctx config state =
  let run_one (done_count, failed_count) (flight, date) =
    match
      Rpc.call ctx
        ~to_:(regional_for config flight)
        ~timeout:config.request_timeout ~attempts:3 "cancel"
        [ Value.int flight; Value.str state.passenger; Value.int date ]
    with
    | Rpc.Reply (("canceled" | "not_reserved"), _) -> (done_count + 1, failed_count)
    | Rpc.Reply _ | Rpc.Failure_msg _ | Rpc.Timeout -> (done_count, failed_count + 1)
  in
  List.fold_left run_one (0, 0) (List.rev state.deferred)

let do_undo state =
  match state.history with
  | [] -> ("nothing_to_undo", [])
  | { op = `Reserve; flight; date } :: rest ->
      (* An unwanted reservation is undone by a (deferred) cancel. *)
      state.history <- rest;
      state.deferred <- (flight, date) :: state.deferred;
      ("undone", [])
  | { op = `Cancel; flight; date } :: rest ->
      (* Undoing a deferred cancel: just forget it. *)
      state.history <- rest;
      state.deferred <- List.filter (fun fd -> fd <> (flight, date)) state.deferred;
      ("undone", [])

(* Figure 5's do_trans: the forked conversation process. *)
let do_trans ctx config ~passenger ~trans_port =
  let state = { passenger; history = []; deferred = [] } in
  let rec loop () =
    match Runtime.receive ctx ~timeout:config.idle_timeout [ trans_port ] with
    | `Timeout ->
        (* The clerk went away; abandon the conversation. *)
        Runtime.remove_port ctx trans_port
    | `Msg (_, msg) -> (
        let serve_and_continue () =
          Rpc.serve_always ctx msg ~f:(fun command args ->
              match (command, args) with
              | "reserve", [ Value.Int flight; Value.Int date ] ->
                  do_reserve ctx config state ~flight ~date
              | "cancel", [ Value.Int flight; Value.Int date ] ->
                  state.deferred <- (flight, date) :: state.deferred;
                  state.history <- { op = `Cancel; flight; date } :: state.history;
                  ("deferred", [])
              | "undo", [] -> do_undo state
              | _ -> ("failure", [ Value.str "unknown transaction request" ]));
          loop ()
        in
        match msg.Message.command with
        | "finish" ->
            (* do all cancels, then this terminates the process *)
            Rpc.serve_always ctx msg ~f:(fun _ _ ->
                let done_count, failed_count = do_deferred_cancels ctx config state in
                ("finished", [ Value.int done_count; Value.int failed_count ]));
            Runtime.remove_port ctx trans_port
        | _ -> serve_and_continue ())
  in
  loop ()

let serve ctx config =
  let front_port = Runtime.port ctx 0 in
  let rec loop () =
    (match Runtime.receive ctx [ front_port ] with
    | `Timeout -> ()
    | `Msg (_, msg) -> (
        match (msg.Message.command, msg.Message.args) with
        | "begin_transaction", [ Value.Int _id; Value.Str passenger ] ->
            let trans_port = Runtime.new_port ctx Types.transaction_port_type in
            ignore
              (Runtime.spawn ctx ~name:("do_trans." ^ passenger) (fun () ->
                   do_trans ctx config ~passenger ~trans_port));
            Rpc.serve_always ctx msg ~f:(fun _ _ ->
                ("transaction", [ Value.port (Port.name trans_port) ]))
        | _ -> ()));
    loop ()
  in
  loop ()

let parse_args args =
  match args with
  | [ Value.Listv regionals; Value.Int request_timeout; Value.Int idle_timeout ] ->
      {
        regionals = Array.of_list (List.map Value.get_port regionals);
        request_timeout;
        idle_timeout;
      }
  | _ -> invalid_arg "front_desk guardian: bad creation arguments"

let config_key = "_config"

let def : Runtime.def =
  {
    Runtime.def_name;
    provides = [ (Types.front_desk_port_type, 128) ];
    init =
      (fun ctx args ->
        Dcp_stable.Store.set (Runtime.store ctx) ~key:config_key
          (Codec.encode_exn (Value.list args));
        serve ctx (parse_args args));
    recover =
      Some
        (fun ctx ->
          (* Transactions in progress are forgotten (§3.5); only the desk
             itself returns, ready for new transactions. *)
          match Dcp_stable.Store.get (Runtime.store ctx) ~key:config_key with
          | None -> Runtime.self_destruct ctx
          | Some encoded ->
              serve ctx (parse_args (Value.get_list (Codec.decode_exn encoded))));
  }

(* The third arg is the idle timeout that ends an abandoned transaction;
   [parse_args] reads it back from the stored creation record. *)
let create world ~at ~regionals ?(request_timeout = Clock.ms 500) () =
  if Runtime.find_def world def_name = None then Runtime.register_def world def;
  let args =
    [
      Value.list (List.map Value.port regionals);
      Value.int request_timeout;
      Value.int (Clock.s 60);
    ]
  in
  let g = Runtime.create_guardian world ~at ~def_name ~args in
  List.hd (Runtime.guardian_ports g)
