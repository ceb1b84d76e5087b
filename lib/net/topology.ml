type node_id = int

type t = {
  node_list : node_id list;
  mem : node_id -> bool;  (** constant time *)
  pick : src:node_id -> dst:node_id -> Link.t;
  cluster : int array;  (** node -> cluster index, for {!clusters} only *)
}

let nodes t = t.node_list
let size t = List.length t.node_list
let mem t id = t.mem id

let link t ~src ~dst =
  if not (mem t src) then invalid_arg "Topology.link: unknown source node";
  if not (mem t dst) then invalid_arg "Topology.link: unknown destination node";
  if src = dst then Link.perfect else t.pick ~src ~dst

(* Nodes 0..n-1. *)
let dense n pick cluster =
  { node_list = List.init n Fun.id; mem = (fun id -> id >= 0 && id < n); pick; cluster }

let full_mesh ~n link =
  if n <= 0 then invalid_arg "Topology.full_mesh: n must be positive";
  dense n (fun ~src:_ ~dst:_ -> link) [||]

let clusters ~sizes ~local ~long_haul =
  if sizes = [] || List.exists (fun s -> s <= 0) sizes then
    invalid_arg "Topology.clusters: sizes must be positive";
  let cluster =
    Array.of_list (List.concat (List.mapi (fun c size -> List.init size (fun _ -> c)) sizes))
  in
  let gateway_path = Link.compose local (Link.compose long_haul local) in
  let pick ~src ~dst = if cluster.(src) = cluster.(dst) then local else gateway_path in
  dense (Array.length cluster) pick cluster

let star ~n ~hub ~spoke =
  if n <= 0 then invalid_arg "Topology.star: n must be positive";
  if hub < 0 || hub >= n then invalid_arg "Topology.star: hub out of range";
  let two_hop = Link.compose spoke spoke in
  let pick ~src ~dst = if src = hub || dst = hub then spoke else two_hop in
  dense n pick [||]

let custom ~nodes pick =
  let members = Hashtbl.create (List.length nodes) in
  List.iter (fun id -> Hashtbl.replace members id ()) nodes;
  { node_list = nodes; mem = Hashtbl.mem members; pick; cluster = [||] }

let cluster_of t id = if id >= 0 && id < Array.length t.cluster then Some t.cluster.(id) else None
