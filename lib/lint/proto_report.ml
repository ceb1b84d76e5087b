(* The machine-readable proto-tier report (`dcp.lint.proto/v1`).

   A [Json.t] document like [Report]'s.  Everything is emitted in
   deterministic order: units as discovered (sorted paths), sends by line,
   handles by line, flow edges by (src, dst), call-graph edges grouped per
   library. *)

open Proto_extract
open Dcp_json.Json

let schema = "dcp.lint.proto/v1"

let of_names = function
  | Dynamic -> Str "dynamic"
  | Known s -> Arr (List.map (fun n -> Str n) (SSet.elements s))

let of_send (sd : Proto_summary.send) =
  Obj
    [
      ("line", Num (float_of_int sd.sd_line));
      ("context", Str sd.sd_context);
      ("via", Str sd.sd_via);
      ("names", of_names sd.sd_names);
    ]

let of_handle (h : handle) =
  Obj
    [
      ("name", Str h.h_name);
      ("kind", Str (kind_name h.h_kind));
      ("line", Num (float_of_int h.h_line));
      ("context", Str h.h_context);
      ("obligated", Bool h.h_obligated);
    ]

let of_unit ({ us_unit = u; us_sends } : Proto_flow.unit_sends) =
  Obj
    [
      ("id", Str u.u_id);
      ("path", Str u.u_path);
      ("module", Str u.u_module);
      ("lib", match u.u_lib with Some l -> Str l | None -> Null);
      ("parsed", Bool (Option.is_some u.u_structure));
      ( "sends",
        Arr
          (List.map of_send
             (List.sort
                (fun (a : Proto_summary.send) b -> Int.compare a.sd_line b.sd_line)
                us_sends)) );
      ( "handles",
        Arr
          (List.map of_handle
             (List.sort (fun (a : handle) b -> Int.compare a.h_line b.h_line) u.u_handles)) );
    ]

let of_edge (e : Proto_flow.edge) =
  Obj
    [
      ("src", Str e.e_src);
      ("dst", Str e.e_dst);
      ("msgs", Arr (List.map (fun n -> Str n) (SSet.elements e.e_msgs)));
    ]

(* Call-graph edges arrive sorted by (lib, caller, callee); group them by
   library, the [None] (bin/examples) group last as "-". *)
let of_call_graph edges =
  let lib_name = function Some l -> l | None -> "-" in
  let groups =
    List.fold_left
      (fun acc (lib, caller, callee) ->
        let l = lib_name lib in
        match acc with
        | (l', edges) :: rest when String.equal l l' -> (l', (caller, callee) :: edges) :: rest
        | _ -> (l, [ (caller, callee) ]) :: acc)
      []
      (List.sort
         (fun (l1, a1, b1) (l2, a2, b2) ->
           let c = String.compare (lib_name l1) (lib_name l2) in
           if c <> 0 then c
           else
             let c = String.compare a1 a2 in
             if c <> 0 then c else String.compare b1 b2)
         edges)
  in
  Arr
    (List.rev_map
       (fun (lib, edges) ->
         Obj
           [
             ("lib", Str lib);
             ( "edges",
               Arr
                 (List.rev_map
                    (fun (caller, callee) -> Obj [ ("from", Str caller); ("to", Str callee) ])
                    edges) );
           ])
       groups)

let proto_rules =
  [
    "proto-dead-letter";
    "proto-unreachable-handler";
    "proto-reply-obligation";
    "proto-escape";
    "proto-unused-export";
  ]

let of_exports ({ declared; unused; test_only } : Proto_exports.counts) =
  Obj
    [
      ("declared", Num (float_of_int declared));
      ("unused", Num (float_of_int unused));
      ("test_only", Num (float_of_int test_only));
    ]

let build ~root ~units ~flow ~call_graph ~exports ~findings ~stale_baseline =
  let rules =
    List.filter (fun (rule, _) -> List.exists (String.equal rule) proto_rules) Finding.rules
  in
  Obj
    [
      ("schema", Str schema);
      ("root", Str root);
      ("units_scanned", Num (float_of_int (List.length units)));
      ("units", Arr (List.map of_unit units));
      ("flow", Arr (List.map of_edge flow));
      ("call_graph", of_call_graph call_graph);
      ("exports", of_exports exports);
      ("findings", Arr (List.map Report.of_finding findings));
      ("stale_baseline", Arr (List.map (fun k -> Str k) stale_baseline));
      ( "summary",
        Report.summary ~rules ~findings ~stale_baseline
          [ ("flow_edges", Num (float_of_int (List.length flow))) ] );
    ]
