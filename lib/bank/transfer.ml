open Dcp_wire
module Runtime = Dcp_core.Runtime
module Message = Dcp_core.Message
module Store = Dcp_stable.Store
module Rpc = Dcp_primitives.Rpc
module Clock = Dcp_sim.Clock

let def_name = "bank_transfer"

let transfer_replies =
  [
    Vtype.reply "ok" [];
    Vtype.reply "insufficient" [];
    Vtype.reply "no_account" [];
    Vtype.reply "failed" [ Vtype.Tstr ];
  ]

let port_type =
  [
    Rpc.request_signature "transfer"
      [ Vtype.Tint; Vtype.Tstr; Vtype.Tint; Vtype.Tstr; Vtype.Tint ]
      ~replies:transfer_replies;
  ]

type stage = Withdrawing | Depositing | Refunding

let stage_to_string = function
  | Withdrawing -> "withdrawing"
  | Depositing -> "depositing"
  | Refunding -> "refunding"

let stage_of_string = function
  | "withdrawing" -> Withdrawing
  | "depositing" -> Depositing
  | "refunding" -> Refunding
  | s -> invalid_arg ("transfer: unknown stage " ^ s)

type record = {
  tid : int;
  stage : stage;
  from_branch : int;
  from_account : string;
  to_branch : int;
  to_account : string;
  amount : int;
  reply : Port_name.t option;
}

let record_key tid = Printf.sprintf "t:%d" tid

let encode_record r =
  Codec.encode_exn
    (Value.record
       [
         ("tid", Value.int r.tid);
         ("stage", Value.str (stage_to_string r.stage));
         ("from_branch", Value.int r.from_branch);
         ("from_account", Value.str r.from_account);
         ("to_branch", Value.int r.to_branch);
         ("to_account", Value.str r.to_account);
         ("amount", Value.int r.amount);
         ("reply", Value.option (Option.map Value.port r.reply));
       ])

let decode_record encoded =
  let v = Codec.decode_exn encoded in
  {
    tid = Value.get_int (Value.field v "tid");
    stage = stage_of_string (Value.get_str (Value.field v "stage"));
    from_branch = Value.get_int (Value.field v "from_branch");
    from_account = Value.get_str (Value.field v "from_account");
    to_branch = Value.get_int (Value.field v "to_branch");
    to_account = Value.get_str (Value.field v "to_account");
    amount = Value.get_int (Value.field v "amount");
    reply = Option.map Value.get_port (Value.get_option (Value.field v "reply"));
  }

(* Step request ids are derived from the transfer id so a re-driven step
   after a coordinator crash reuses the id its first incarnation used, and
   the branch's response record answers it.  The offset keeps them clear
   of the ids the world's mint hands out to Rpc (counting up from 0) and
   Two_phase (from 2_000_000_000). *)
let step_id tid = function
  | Withdrawing -> 3_000_000_000 + (tid * 4)
  | Depositing -> 3_000_000_000 + (tid * 4) + 1
  | Refunding -> 3_000_000_000 + (tid * 4) + 2

let step_request_ids ~tid =
  (step_id tid Withdrawing, step_id tid Depositing, step_id tid Refunding)

let set_stage ctx r stage =
  let r = { r with stage } in
  Store.set (Runtime.store ctx) ~key:(record_key r.tid) (encode_record r);
  r

let finish ctx r reply_command reply_args =
  Store.remove (Runtime.store ctx) ~key:(record_key r.tid);
  match r.reply with
  | None -> ()
  | Some reply ->
      (* The requester may be long gone (it timed out, or its node
         crashed); a failure notice for the dead port is acceptable. *)
      Runtime.send ctx ~to_:reply reply_command (Value.int r.tid :: reply_args)

let branch_call ctx branches r stage command args =
  let target =
    match stage with
    | Withdrawing | Refunding -> branches.(r.from_branch)
    | Depositing -> branches.(r.to_branch)
  in
  Rpc.call ctx ~to_:target ~timeout:(Clock.ms 500) ~attempts:5 ~request_id:(step_id r.tid stage)
    command args

(* Drive a transfer from its current stage to completion. *)
let rec drive ctx branches r =
  match r.stage with
  | Withdrawing -> (
      match
        branch_call ctx branches r Withdrawing "withdraw"
          [ Value.str r.from_account; Value.int r.amount ]
      with
      | Rpc.Reply ("ok", _) -> drive ctx branches (set_stage ctx r Depositing)
      | Rpc.Reply ("insufficient", _) -> finish ctx r "insufficient" []
      | Rpc.Reply ("no_account", _) -> finish ctx r "no_account" []
      | Rpc.Reply _ | Rpc.Failure_msg _ | Rpc.Timeout ->
          (* The source branch is unreachable beyond our patience; nothing
             has happened yet, so the transfer fails cleanly. *)
          finish ctx r "failed" [ Value.str "source branch unreachable" ])
  | Depositing -> (
      match
        branch_call ctx branches r Depositing "deposit"
          [ Value.str r.to_account; Value.int r.amount ]
      with
      | Rpc.Reply ("ok", _) -> finish ctx r "ok" []
      | Rpc.Reply ("no_account", _) -> drive ctx branches (set_stage ctx r Refunding)
      | Rpc.Reply _ | Rpc.Failure_msg _ | Rpc.Timeout ->
          (* Money is out of the source account: we must not give up, or it
             evaporates.  Park the transfer and retry later; recovery will
             also re-drive it if we crash meanwhile. *)
          Runtime.sleep ctx (Clock.s 1);
          drive ctx branches r)
  | Refunding -> (
      match
        branch_call ctx branches r Refunding "deposit"
          [ Value.str r.from_account; Value.int r.amount ]
      with
      | Rpc.Reply ("ok", _) -> finish ctx r "no_account" []
      | Rpc.Reply _ | Rpc.Failure_msg _ | Rpc.Timeout ->
          Runtime.sleep ctx (Clock.s 1);
          drive ctx branches r)

let parse_branches args = Array.of_list (List.map Value.get_port args)

let handle ctx branches msg =
  match (msg.Message.args, msg.Message.reply_to) with
  | ( [
        Value.Int tid;
        Value.Int from_branch;
        Value.Str from_account;
        Value.Int to_branch;
        Value.Str to_account;
        Value.Int amount;
      ],
      reply ) ->
      if from_branch < 0 || from_branch >= Array.length branches || to_branch < 0
         || to_branch >= Array.length branches || amount <= 0
      then (
        match reply with
        | Some reply ->
            Runtime.send ctx ~to_:reply "failed" [ Value.int tid; Value.str "bad transfer request" ]
        | None -> ())
      else begin
        let r =
          { tid; stage = Withdrawing; from_branch; from_account; to_branch; to_account; amount; reply }
        in
        (match Store.get (Runtime.store ctx) ~key:(record_key tid) with
        | Some _ -> ()  (* duplicate transfer request: already being driven *)
        | None ->
            Store.set (Runtime.store ctx) ~key:(record_key tid) (encode_record r);
            ignore
              (Runtime.spawn ctx ~name:(Printf.sprintf "transfer.%d" tid) (fun () ->
                   drive ctx branches r)))
      end
  | _, _ -> ()

let serve ctx branches =
  let request_port = Runtime.port ctx 0 in
  let rec loop () =
    (match Runtime.receive ctx [ request_port ] with
    | `Timeout -> ()
    | `Msg (_, msg) -> handle ctx branches msg);
    loop ()
  in
  loop ()

let config_key = "_branches"

let def : Runtime.def =
  {
    Runtime.def_name;
    provides = [ (port_type, 256) ];
    init =
      (fun ctx args ->
        Store.set (Runtime.store ctx) ~key:config_key (Codec.encode_exn (Value.list args));
        serve ctx (parse_branches args));
    recover =
      Some
        (fun ctx ->
          match Store.get (Runtime.store ctx) ~key:config_key with
          | None -> Runtime.self_destruct ctx
          | Some encoded ->
              let branches = parse_branches (Value.get_list (Codec.decode_exn encoded)) in
              (* Re-drive every transfer that was in flight at the crash,
                 in key order so recovery spawns deterministically. *)
              let pending =
                List.filter_map
                  (fun (key, value) ->
                    if String.length key > 2 && String.equal (String.sub key 0 2) "t:" then
                      Some (decode_record value)
                    else None)
                  (Store.to_alist (Runtime.store ctx))
              in
              List.iter
                (fun r ->
                  ignore
                    (Runtime.spawn ctx ~name:(Printf.sprintf "transfer.recover.%d" r.tid)
                       (fun () -> drive ctx branches r)))
                pending;
              serve ctx branches);
  }

let create world ~at ~branches () =
  if Runtime.find_def world def_name = None then Runtime.register_def world def;
  let g = Runtime.create_guardian world ~at ~def_name ~args:(List.map Value.port branches) in
  List.hd (Runtime.guardian_ports g)

let incomplete_transfers world =
  let count_in g =
    let store = Runtime.guardian_store g in
    if Store.is_crashed store then 0
    else
      Store.fold store ~init:0 ~f:(fun ~key _value acc ->
          if String.length key > 2 && String.equal (String.sub key 0 2) "t:" then acc + 1
          else acc)
  in
  List.fold_left (fun acc g -> acc + count_in g) 0 (Runtime.find_guardians world ~def_name)
