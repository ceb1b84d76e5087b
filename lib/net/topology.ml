type node_id = int

type t = { node_list : node_id list; n : int; link : Link.t }

let nodes t = t.node_list
let mem t id = id >= 0 && id < t.n

let link t ~src ~dst =
  if not (mem t src) then invalid_arg "Topology.link: unknown source node";
  if not (mem t dst) then invalid_arg "Topology.link: unknown destination node";
  if src = dst then Link.perfect else t.link

let full_mesh ~n link =
  if n <= 0 then invalid_arg "Topology.full_mesh: n must be positive";
  { node_list = List.init n Fun.id; n; link }
