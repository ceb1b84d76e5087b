(* Whole-program protocol analysis, pass 4: the message-flow graph.

   Joins every resolved send site against every handler/declaration site:

   - dead-letter send: a statically-known sent name no unit handles or
     declares anywhere — the receiver's dispatch fall-through is the only
     thing that can happen to it;
   - unreachable handler: a dispatched/declared name no in-repo send site
     produces (warning tier — test-only and externally-driven senders
     legitimately trip it);
   - flow edges: (sender unit) -> (handler unit) labelled with the shared
     message names, exported as graphviz.

   The runtime-generated "failure" reply is always considered both sent
   and handled.  [Dynamic] send sites contribute no names and are never
   reported — they are visible in the report tables instead. *)

open Proto_extract

type edge = { e_src : string; e_dst : string; e_msgs : SSet.t }

type unit_sends = { us_unit : unit_info; us_sends : Proto_summary.send list }

let handled_names units =
  List.fold_left
    (fun acc u -> List.fold_left (fun acc h -> SSet.add h.h_name acc) acc u.u_handles)
    (SSet.singleton "failure") units

let sent_names per_unit =
  List.fold_left
    (fun acc { us_sends; _ } ->
      List.fold_left
        (fun acc sd ->
          match sd.Proto_summary.sd_names with
          | Known s -> SSet.union acc s
          | Dynamic -> acc)
        acc us_sends)
    (SSet.singleton "failure") per_unit

let dead_letters ~handled per_unit =
  List.concat_map
    (fun { us_unit = u; us_sends } ->
      List.concat_map
        (fun sd ->
          match sd.Proto_summary.sd_names with
          | Dynamic -> []
          | Known names ->
              SSet.fold
                (fun name acc ->
                  if SSet.mem name handled then acc
                  else
                    Finding.v ~rule:"proto-dead-letter" ~file:u.u_path
                      ~line:sd.Proto_summary.sd_line ~col:0
                      ~context:sd.Proto_summary.sd_context ~token:name
                      (Printf.sprintf
                         "message %S (sent via %s) has no handler in the whole program; the \
                          receiver can only drop it"
                         name sd.Proto_summary.sd_via)
                    :: acc)
                names []
              |> List.rev)
        us_sends)
    per_unit

(* Only real dispatch arms and request declarations count as handler
   intent; reply-name declarations are produced by handlers, not consumed
   by them, so an unsent reply name is dead code of a different kind and
   stays out of this rule. *)
let unreachable ~sent units =
  List.concat_map
    (fun u ->
      List.filter_map
        (fun h ->
          match h.h_kind with
          | Reply_declared | Reply_match -> None
          | Dispatch | Declared ->
              if SSet.mem h.h_name sent then None
              else
                Some
                  (Finding.v ~rule:"proto-unreachable-handler" ~file:u.u_path ~line:h.h_line
                     ~col:0 ~context:h.h_context ~token:h.h_name
                     (Printf.sprintf
                        "handler for %S (%s) is unreachable: no send site in the program \
                         produces this name"
                        h.h_name (kind_name h.h_kind))))
        u.u_handles)
    units

module PMap = Map.Make (struct
  type t = string * string

  let compare (a1, b1) (a2, b2) =
    let c = String.compare a1 a2 in
    if c <> 0 then c else String.compare b1 b2
end)

(* A unit that declares a reply name produces it, so that handle is no
   edge target: only the units that dispatch on, declare as a request, or
   match a reply of the name consume it. *)
let edges units per_unit =
  let handlers =
    List.fold_left
      (fun acc u ->
        List.fold_left
          (fun acc h ->
            match h.h_kind with
            | Reply_declared -> acc
            | Dispatch | Declared | Reply_match ->
                let cur = Option.value (SMap.find_opt h.h_name acc) ~default:SSet.empty in
                SMap.add h.h_name (SSet.add u.u_id cur) acc)
          acc u.u_handles)
      SMap.empty units
  in
  let tbl =
    List.fold_left
      (fun acc { us_unit = u; us_sends } ->
        List.fold_left
          (fun acc sd ->
            match sd.Proto_summary.sd_names with
            | Dynamic -> acc
            | Known names ->
                SSet.fold
                  (fun name acc ->
                    match SMap.find_opt name handlers with
                    | None -> acc
                    | Some dsts ->
                        SSet.fold
                          (fun dst acc ->
                            let k = (u.u_id, dst) in
                            let cur = Option.value (PMap.find_opt k acc) ~default:SSet.empty in
                            PMap.add k (SSet.add name cur) acc)
                          dsts acc)
                  names acc)
          acc us_sends)
      PMap.empty per_unit
  in
  PMap.fold
    (fun (src, dst) msgs acc -> { e_src = src; e_dst = dst; e_msgs = msgs } :: acc)
    tbl []
  |> List.rev

let dot edges =
  let b = Buffer.create 1024 in
  Buffer.add_string b "digraph proto_msgflow {\n  rankdir=LR;\n  node [shape=box];\n";
  List.iter
    (fun e ->
      Buffer.add_string b
        (Printf.sprintf "  \"%s\" -> \"%s\" [label=\"%s\"];\n" e.e_src e.e_dst
           (String.concat "," (SSet.elements e.e_msgs))))
    edges;
  Buffer.add_string b "}\n";
  Buffer.contents b
