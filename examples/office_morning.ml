(* An office automation morning (the intro's third application domain).

   Run with:  dune exec examples/office_morning.exe

   Three nodes: a records node hosting the directory and the printer, and
   one node per user hosting their mailbox.  Bob circulates a memo to Ann
   through the directory, Ann reads it, appends a comment (documents are
   transmittable abstract values — her node holds them as line lists) and
   sends it to the printer, which completes the job later and notifies her
   — the "response from a different process" pattern of §3.  The records
   node then crashes; mailboxes and the directory recover, the printer's
   queue (device state) does not. *)

open Dcp_wire
module Runtime = Dcp_core.Runtime
module Rpc = Dcp_primitives.Rpc
module Document = Dcp_office.Document
module Mailbox = Dcp_office.Mailbox
module Printer = Dcp_office.Printer
module Directory = Dcp_office.Directory
module Clock = Dcp_sim.Clock
module Topology = Dcp_net.Topology
module Link = Dcp_net.Link

let () =
  let world = Runtime.create_world ~seed:12 ~topology:(Topology.full_mesh ~n:3 Link.lan) () in
  let directory = Directory.create world ~at:0 () in
  let printer = Printer.create world ~at:0 ~line_time:(Clock.ms 20) () in
  let ann_delivery, ann_owner = Mailbox.create world ~at:1 ~owner:"ann" () in
  let bob_delivery, _bob_owner = Mailbox.create world ~at:2 ~owner:"bob" () in

  (* Bob's morning: register, then circulate the memo. *)
  let bob : Runtime.def =
    {
      Runtime.def_name = "bob";
      provides = [];
      init =
        (fun ctx _ ->
          ignore (Directory.register_user ctx ~directory ~user:"bob" ~port:bob_delivery);
          Runtime.sleep ctx (Clock.ms 20);
          match Directory.lookup ctx ~directory ~user:"ann" with
          | None -> Format.printf "bob: ann is not in the directory yet@."
          | Some ann ->
              let memo =
                Document.create ~title:"budget memo" ~author:"bob"
                  ~body:"Q3 numbers attached.\nPlease review by Friday."
              in
              (match
                 Rpc.call ctx ~to_:ann ~timeout:(Clock.ms 500) ~attempts:3 "deliver"
                   [ Document.to_value memo ]
               with
              | Rpc.Reply ("delivered", _) ->
                  Format.printf "[%a] bob: memo delivered to ann@." Clock.pp
                    (Runtime.ctx_now ctx)
              | _ -> Format.printf "bob: delivery failed@."));
      recover = None;
    }
  in

  (* Ann's morning: register, poll the mailbox, annotate, print. *)
  let ann : Runtime.def =
    {
      Runtime.def_name = "ann";
      provides = [];
      init =
        (fun ctx _ ->
          ignore (Directory.register_user ctx ~directory ~user:"ann" ~port:ann_delivery);
          let rec poll () =
            Runtime.sleep ctx (Clock.ms 50);
            match Rpc.call ctx ~to_:ann_owner ~timeout:(Clock.ms 500) "fetch" [ Value.int 0 ] with
            | Rpc.Reply ("mail", [ doc_value ]) ->
                (* Ann's node prefers the line representation (§3.3). *)
                let doc = Document.of_value_lines doc_value in
                Format.printf "[%a] ann: reading %S by %s (%d words)@." Clock.pp
                  (Runtime.ctx_now ctx) (Document.title doc) (Document.author doc)
                  (Document.word_count doc);
                let annotated = Document.append doc "ann: looks fine, one typo on p.2" in
                let notify = Runtime.new_port ctx [ Vtype.wildcard ] in
                (match
                   Rpc.call ctx ~to_:printer ~timeout:(Clock.ms 500) "print"
                     [
                       Document.to_value annotated;
                       Value.option (Some (Value.port (Dcp_core.Port.name notify)));
                     ]
                 with
                | Rpc.Reply ("queued", [ Value.Int pos ]) ->
                    Format.printf "[%a] ann: print job queued at position %d@." Clock.pp
                      (Runtime.ctx_now ctx) pos
                | _ -> Format.printf "ann: print failed@.");
                (match Runtime.receive ctx ~timeout:(Clock.s 5) [ notify ] with
                | `Msg (_, { Dcp_core.Message.command = "printed"; args = [ Value.Str t ]; _ })
                  ->
                    Format.printf "[%a] ann: printer finished %S@." Clock.pp
                      (Runtime.ctx_now ctx) t
                | `Msg _ | `Timeout -> Format.printf "ann: no printer confirmation@.")
            | _ -> poll ()
          in
          poll ());
      recover = None;
    }
  in
  Runtime.register_def world bob;
  Runtime.register_def world ann;
  ignore (Runtime.create_guardian world ~at:2 ~def_name:"bob" ~args:[]);
  ignore (Runtime.create_guardian world ~at:1 ~def_name:"ann" ~args:[]);

  (* The records node has a bad afternoon. *)
  Runtime.schedule_at world ~node:0 ~at:(Clock.s 2) (fun () ->
      Format.printf "[%a] *** records node crashes ***@." Clock.pp (Runtime.now world);
      Runtime.crash_node world 0);
  Runtime.schedule_at world ~node:0 ~at:(Clock.s 3) (fun () ->
      Format.printf "[%a] *** records node back; directory recovered ***@." Clock.pp
        (Runtime.now world);
      Runtime.restart_node world 0);

  Runtime.run_for world (Clock.s 5);
  (* The directory survived the crash — look bob up again from ann's node. *)
  let check : Runtime.def =
    {
      Runtime.def_name = "check";
      provides = [];
      init =
        (fun ctx _ ->
          match Directory.lookup ctx ~directory ~user:"bob" with
          | Some _ -> Format.printf "directory still knows bob after the crash@."
          | None -> Format.printf "directory lost bob?!@.");
      recover = None;
    }
  in
  Runtime.register_def world check;
  ignore (Runtime.create_guardian world ~at:1 ~def_name:"check" ~args:[]);
  Runtime.run_for world (Clock.s 2);
  Format.printf "done at %a@." Clock.pp (Runtime.now world)
