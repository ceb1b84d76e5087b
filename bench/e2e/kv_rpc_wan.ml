(* kv_rpc_wan: the inter-node path, with stable storage beside it.

   Eight nodes joined by [Link.wan] (30 ms latency, 1% loss, duplicates).
   Four [Rpc.serve] key-value servers keep their data in their guardian
   store, checkpointed every 512 mutations.  [clients] clients each make
   [calls] calls (300 ms timeout, 3 attempts), alternating put(key, 2 KiB
   value) and get(key) over 16 keys of their own; which key a call uses
   and which server holds each key are drawn from the seed.  A request
   body is about two fragments, so the run covers fragmentation, CRC, loss
   and duplication, reassembly, RPC retry and dedup.  Writes sit beside
   reads, so a store or codec change that helps one side and costs the
   other shows up. *)

open Dcp_wire
module Runtime = Dcp_core.Runtime
module Message = Dcp_core.Message
module Rpc = Dcp_primitives.Rpc
module Store = Dcp_stable.Store
module Clock = Dcp_sim.Clock
module Rng = Dcp_rng.Rng

let size ~smoke = if smoke then (8, 40) else (64, 200)
let servers = 4
let client_nodes = 4
let keys = 16
let blob_bytes = 2048
let timeout = Clock.ms 300
let attempts = 3

(* Request ids are pinned, [client * stride + call], so the bytes on the
   wire do not depend on the process-global RPC id counter. *)
let stride = 1_000_000

(* Envelopes kept for the wire replay: each client's first calls and the
   replies to them. *)
let sampled_calls = 16

let port_type =
  [
    Rpc.request_signature "put" [ Vtype.Tstr; Vtype.Tint; Vtype.Tstr ] ~replies:[ Vtype.reply "ok" [] ];
    Rpc.request_signature "get" [ Vtype.Tstr ]
      ~replies:[ Vtype.reply "value" [ Vtype.Tint; Vtype.Tstr ]; Vtype.reply "none" [] ];
  ]

(* The store keeps "<version>|<blob>" under the key. *)
let encode_entry version blob = string_of_int version ^ "|" ^ blob

let decode_entry s =
  match String.index_opt s '|' with
  | Some i ->
      Some (int_of_string (String.sub s 0 i), String.sub s (i + 1) (String.length s - i - 1))
  | None -> None

let setup ~seed ~smoke tr =
  let clients, calls = size ~smoke in
  let rng = Rng.create ~seed in
  (* A put of key j carries blob.(j) rotated by the put's version, so
     every put of a key carries distinct bytes. *)
  let blob = Array.init keys (fun _ -> Workload.payload rng blob_bytes) in
  let blob_for j version =
    let b = blob.(j) and k = version mod blob_bytes in
    String.sub b k (blob_bytes - k) ^ String.sub b 0 k
  in
  let key_of_call = Array.init clients (fun _ -> Array.init calls (fun _ -> Rng.int rng keys)) in
  let home = Array.init clients (fun _ -> Array.init keys (fun _ -> Rng.int rng servers)) in
  let config = { Runtime.default_config with checkpoint_every = Some 512 } in
  let world =
    Runtime.create_world ~seed:(Rng.int rng 1_000_000_000)
      ~topology:(Dcp_net.Topology.full_mesh ~n:(servers + client_nodes) Dcp_net.Link.wan)
      ~config ()
  in
  let k_run = Span.kind tr "sim.run" Span.Host in
  let k_serve = Span.kind tr "primitives.rpc_serve" Span.Host in
  let k_set = Span.kind tr "stable.set" Span.Host in
  let k_get = Span.kind tr "stable.get" Span.Host in
  let k_receive = Span.kind tr "core.receive" Span.Virtual in
  let k_call = Span.kind tr "primitives.rpc_call" Span.Virtual in
  let envelopes = ref [] in
  let sampled req = Span.enabled tr && req mod stride < sampled_calls in
  let requests = ref 0 in
  let serve store command args =
    match (command, args) with
    | "put", [ Value.Str key; Value.Int version; Value.Str data ] ->
        Span.enter tr k_set ~req:version;
        Store.set store ~key (encode_entry version data);
        Span.leave tr;
        ("ok", [])
    | "get", [ Value.Str key ] -> (
        Span.enter tr k_get ~req:(-1);
        let entry = Store.get store ~key in
        Span.leave tr;
        match Option.bind entry decode_entry with
        | Some (version, data) -> ("value", [ Value.int version; Value.str data ])
        | None -> ("none", []))
    | _ -> ("none", [])
  in
  let server =
    {
      Runtime.def_name = "kv_server";
      provides = [ (port_type, 256) ];
      init =
        (fun ctx _ ->
          let port = Runtime.port ctx 0 in
          let dedup = Rpc.dedup ~capacity:4096 () in
          let f = serve (Runtime.store ctx) in
          let rec loop () =
            let start = Runtime.ctx_now ctx in
            (match Runtime.receive ctx [ port ] with
            | `Msg (_, msg) ->
                incr requests;
                let req = match msg.Message.args with Value.Int id :: _ -> id | _ -> -1 in
                Span.virtual_span tr k_receive ~req ~start ~stop:(Runtime.ctx_now ctx);
                let f =
                  match msg.Message.reply_to with
                  | Some reply when sampled req ->
                      fun command args ->
                        let answer, answer_args = f command args in
                        envelopes :=
                          Workload.envelope ctx ~to_:reply answer (Value.int req :: answer_args)
                          :: !envelopes;
                        (answer, answer_args)
                  | Some _ | None -> f
                in
                Span.enter tr k_serve ~req;
                Rpc.serve ctx ~dedup msg ~f;
                Span.leave tr
            | `Timeout -> ());
            loop ()
          in
          loop ());
      recover = None;
    }
  in
  let ops = ref 0 and failed = ref 0 and violations = ref [] and client_calls = ref 0 in
  let wrong c n what =
    Workload.violation violations (Printf.sprintf "client %d call %d: %s" c n what)
  in
  let latencies = Array.make (clients * calls) 0 in
  let client =
    {
      Runtime.def_name = "kv_client";
      provides = [];
      init =
        (fun ctx args ->
          match args with
          | [ Value.Int c; Value.Listv ports ] ->
              let ports = Array.of_list (List.map Value.get_port ports) in
              let acked = Array.make keys None in
              for n = 0 to calls - 1 do
                let j = key_of_call.(c).(n) in
                let key = Printf.sprintf "c%dk%d" c j in
                let req = (c * stride) + n in
                let to_ = ports.(home.(c).(j)) in
                let put = n mod 2 = 0 and version = n in
                let command, args =
                  if put then
                    ("put", [ Value.str key; Value.int version; Value.str (blob_for j version) ])
                  else ("get", [ Value.str key ])
                in
                (* the call's real reply port is minted inside [Rpc.call];
                   the server's name stands in for it, at the same size *)
                if sampled req then
                  envelopes :=
                    Workload.envelope ctx ~to_ ~reply_to:to_ command (Value.int req :: args)
                    :: !envelopes;
                let start = Runtime.ctx_now ctx in
                let reply =
                  Workload.call_until_reply ctx ~to_ ~timeout ~attempts ~request_id:req command args
                in
                let stop = Runtime.ctx_now ctx in
                Span.virtual_span tr k_call ~req ~start ~stop;
                (match reply with
                | None -> incr failed
                | Some (answer, answer_args, n_calls) -> (
                    client_calls := !client_calls + n_calls;
                    match (put, answer, answer_args, acked.(j)) with
                    | true, "ok", [], _ -> acked.(j) <- Some version
                    | false, "none", [], None -> ()
                    | false, "value", [ Value.Int v; Value.Str d ], Some last ->
                        if v <> last then
                          wrong c n (Printf.sprintf "get %s gave version %d, last acked %d" key v last)
                        else if not (String.equal d (blob_for j v)) then
                          wrong c n (Printf.sprintf "get %s gave the wrong bytes" key)
                    | _ -> wrong c n (Printf.sprintf "%s %s answered %s" command key answer)));
                latencies.((c * calls) + n) <- stop - start;
                incr ops
              done
          | _ -> invalid_arg "kv_client: expected (index, server ports)");
      recover = None;
    }
  in
  Runtime.register_def world server;
  Runtime.register_def world client;
  let ports =
    List.init servers (fun at ->
        let g = Runtime.create_guardian world ~at ~def_name:"kv_server" ~args:[] in
        Value.port (List.hd (Runtime.guardian_ports g)))
  in
  Runtime.run world;
  for c = 0 to clients - 1 do
    ignore
      (Runtime.create_guardian world ~at:(servers + (c mod client_nodes)) ~def_name:"kv_client"
         ~args:[ Value.int c; Value.list ports ])
  done;
  fun () ->
    let before = Workload.tally world in
    Span.enter tr k_run ~req:(-1);
    Runtime.run world;
    Span.leave tr;
    let after = Workload.tally world in
    let stores =
      List.map Runtime.guardian_store (Runtime.find_guardians world ~def_name:"kv_server")
    in
    let sum f = float_of_int (List.fold_left (fun acc s -> acc + f s) 0 stores) in
    Workload.of_tallies ~before ~after ~ops:!ops ~failed:!failed ~violations:!violations
      ~latencies
      ~layers:
        [
          ("primitives.rpc_attempts_per_call", Workload.ratio !requests !ops);
          ("primitives.rpc_resends_per_call", Workload.ratio (!client_calls - !ops) !ops);
          ("stable.log_records", sum Store.log_length);
          ("stable.checkpoints", sum Store.checkpoint_count);
        ]
      ~envelopes:!envelopes ()

let workload = { Workload.name = "kv_rpc_wan"; setup }
