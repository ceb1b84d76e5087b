(* Cross-branch money transfers with a crash-recovering saga coordinator.

   Run with:  dune exec examples/bank_transfers.exe

   Three nodes: two bank branches and a transfer coordinator.  A stream of
   transfers runs while the coordinator node crashes and recovers; at the
   end the audit shows every cent accounted for — the paper's "permanence
   of effect" (§2.2) driving future actions. *)

open Dcp_wire
module Runtime = Dcp_core.Runtime
module Branch = Dcp_bank.Branch
module Transfer = Dcp_bank.Transfer
module Audit = Dcp_bank.Audit
module Rpc = Dcp_primitives.Rpc
module Clock = Dcp_sim.Clock
module Engine = Dcp_sim.Engine
module Topology = Dcp_net.Topology
module Link = Dcp_net.Link

let () =
  let topology = Topology.full_mesh ~n:4 Link.lan in
  let config = { Runtime.default_config with crash_tear_p = 0.0 } in
  let world = Runtime.create_world ~seed:5 ~topology ~config () in

  let accounts prefix =
    List.init 4 (fun i -> (Printf.sprintf "%s%d" prefix i, 1000))
  in
  let b0 = Branch.create world ~at:0 ~accounts:(accounts "a") () in
  let b1 = Branch.create world ~at:1 ~accounts:(accounts "b") () in
  let coordinator = Transfer.create world ~at:2 ~branches:[ b0; b1 ] () in
  let initial_total = 8 * 1000 in
  Format.printf "bank up: 2 branches x 4 accounts, %d cents total@." initial_total;

  (* A teller guardian at node 3 issues transfers. *)
  let outcomes = Hashtbl.create 8 in
  let teller_def : Runtime.def =
    {
      Runtime.def_name = "teller";
      provides = [];
      init =
        (fun ctx _ ->
          for i = 1 to 12 do
            let from_account = Printf.sprintf "a%d" (i mod 4) in
            let to_account = Printf.sprintf "b%d" ((i + 1) mod 4) in
            let outcome =
              match
                Rpc.call ctx ~to_:coordinator ~timeout:(Clock.s 2) ~attempts:3 "transfer"
                  [
                    Value.int 0;
                    Value.str from_account;
                    Value.int 1;
                    Value.str to_account;
                    Value.int (25 * i);
                  ]
              with
              | Rpc.Reply (command, _) -> command
              | Rpc.Failure_msg _ -> "failure"
              | Rpc.Timeout -> "timeout"
            in
            Format.printf "[%a] transfer #%d %s->%s %d cents: %s@." Clock.pp
              (Runtime.ctx_now ctx) i from_account to_account (25 * i) outcome;
            Hashtbl.replace outcomes outcome
              (1 + Option.value (Hashtbl.find_opt outcomes outcome) ~default:0);
            Runtime.sleep ctx (Clock.ms 100)
          done;
          (* Let stragglers settle, then audit. *)
          Runtime.sleep ctx (Clock.s 10);
          (match Audit.total_balance ctx ~branches:[ b0; b1 ] with
          | Ok total ->
              Format.printf "@.audit: %d cents on the books (started with %d) — %s@." total
                initial_total
                (if total = initial_total then "conserved" else "MONEY LEAKED!")
          | Error reason -> Format.printf "audit failed: %s@." reason);
          Format.printf "incomplete sagas: %d@." (Transfer.incomplete_transfers world));
      recover = None;
    }
  in
  Runtime.register_def world teller_def;
  ignore (Runtime.create_guardian world ~at:3 ~def_name:"teller" ~args:[]);

  (* Crash the coordinator in the middle of the stream; its recovery
     process re-drives in-flight transfers from the logged saga records. *)
  let engine = Runtime.engine world in
  ignore
    (Engine.schedule engine ~at:(Clock.ms 450) (fun () ->
         Format.printf "[%a] *** coordinator node crashes ***@." Clock.pp (Engine.now engine);
         Runtime.crash_node world 2));
  ignore
    (Engine.schedule engine ~at:(Clock.ms 900) (fun () ->
         Format.printf "[%a] *** coordinator restarts, recovery re-drives sagas ***@."
           Clock.pp (Engine.now engine);
         Runtime.restart_node world 2));

  Runtime.run_for world (Clock.s 60);
  Format.printf "done at %a@." Clock.pp (Runtime.now world)
