module Engine = Dcp_sim.Engine
module Rng = Dcp_rng.Rng

type node_id = Topology.node_id

type stats = {
  messages_sent : int;
  messages_delivered : int;
  fragments_sent : int;
  fragments_lost : int;
  fragments_corrupted : int;
  fragments_duplicated : int;
  partition_drops : int;
  bytes_sent : int;
}

(* Internal tallies are mutable fields: the fragment path bumps several per
   send, and a functional record update there allocates per fragment. *)
type tallies = {
  mutable t_messages_sent : int;
  mutable t_messages_delivered : int;
  mutable t_fragments_sent : int;
  mutable t_fragments_lost : int;
  mutable t_fragments_corrupted : int;
  mutable t_fragments_duplicated : int;
  mutable t_partition_drops : int;
  mutable t_bytes_sent : int;
}

let fresh_tallies () =
  {
    t_messages_sent = 0;
    t_messages_delivered = 0;
    t_fragments_sent = 0;
    t_fragments_lost = 0;
    t_fragments_corrupted = 0;
    t_fragments_duplicated = 0;
    t_partition_drops = 0;
    t_bytes_sent = 0;
  }

type t = {
  engine : Engine.t;
  rng : Rng.t;
  topology : Topology.t;
  mtu : int;
  handlers : (node_id, src:node_id -> string -> unit) Hashtbl.t;
  reassembly : (node_id, Packet.Reassembly.t) Hashtbl.t;
  mutable groups : node_id list list option;
  mutable next_msg_id : int;
  mutable tallies : tallies;
}

let create ~engine ~rng ~topology ?(mtu = 1024) () =
  if mtu <= 0 then invalid_arg "Network.create: mtu must be positive";
  {
    engine;
    rng;
    topology;
    mtu;
    handlers = Hashtbl.create 16;
    reassembly = Hashtbl.create 16;
    groups = None;
    next_msg_id = 0;
    tallies = fresh_tallies ();
  }

let topology t = t.topology
let set_handler t node f = Hashtbl.replace t.handlers node f
let clear_handler t node = Hashtbl.remove t.handlers node

let partition t groups = t.groups <- Some groups
let heal t = t.groups <- None

let partitioned t ~src ~dst =
  match t.groups with
  | None -> false
  | Some groups ->
      let group_of node =
        let rec find i = function
          | [] -> None
          | g :: rest -> if List.mem node g then Some i else find (i + 1) rest
        in
        find 0 groups
      in
      (match (group_of src, group_of dst) with
      | Some a, Some b -> a <> b
      | None, _ | _, None -> src <> dst)

let reassembly_for t node =
  match Hashtbl.find_opt t.reassembly node with
  | Some r -> r
  | None ->
      let r = Packet.Reassembly.create () in
      Hashtbl.add t.reassembly node r;
      r

let deliver_fragment t frag =
  (* Re-check the partition at arrival time: packets in flight when a
     partition forms are lost, like packets on a cut wire. *)
  if partitioned t ~src:frag.Packet.src ~dst:frag.Packet.dst then
    t.tallies.t_partition_drops <- t.tallies.t_partition_drops + 1
  else if not (Packet.intact frag) then
    t.tallies.t_fragments_corrupted <- t.tallies.t_fragments_corrupted + 1
  else begin
    let r = reassembly_for t frag.Packet.dst in
    match Packet.Reassembly.offer r ~now:(Engine.now t.engine) frag with
    | None -> ()
    | Some (src, body) -> (
        match Hashtbl.find_opt t.handlers frag.Packet.dst with
        | None -> ()
        | Some handler ->
            t.tallies.t_messages_delivered <- t.tallies.t_messages_delivered + 1;
            handler ~src body)
  end

let send t ~src ~dst body =
  t.tallies.t_messages_sent <- t.tallies.t_messages_sent + 1;
  if partitioned t ~src ~dst then
    t.tallies.t_partition_drops <- t.tallies.t_partition_drops + 1
  else begin
    let msg_id = t.next_msg_id in
    t.next_msg_id <- t.next_msg_id + 1;
    let link = Topology.link t.topology ~src ~dst in
    let fragments = Packet.fragment ~src ~dst ~msg_id ~mtu:t.mtu body in
    let transmit_one frag =
      let size = Packet.wire_size frag in
      t.tallies.t_fragments_sent <- t.tallies.t_fragments_sent + 1;
      t.tallies.t_bytes_sent <- t.tallies.t_bytes_sent + size;
      match Link.transmit link t.rng ~size with
      | Link.Drop -> t.tallies.t_fragments_lost <- t.tallies.t_fragments_lost + 1
      | Link.Corrupt_deliver delay ->
          let damaged = Packet.corrupt t.rng frag in
          ignore
            (Engine.schedule_after t.engine ~delay (fun () -> deliver_fragment t damaged))
      | Link.Deliver delays ->
          if List.length delays > 1 then
            t.tallies.t_fragments_duplicated <- t.tallies.t_fragments_duplicated + 1;
          List.iter
            (fun delay ->
              ignore
                (Engine.schedule_after t.engine ~delay (fun () -> deliver_fragment t frag)))
            delays
    in
    List.iter transmit_one fragments
  end

let stats t =
  {
    messages_sent = t.tallies.t_messages_sent;
    messages_delivered = t.tallies.t_messages_delivered;
    fragments_sent = t.tallies.t_fragments_sent;
    fragments_lost = t.tallies.t_fragments_lost;
    fragments_corrupted = t.tallies.t_fragments_corrupted;
    fragments_duplicated = t.tallies.t_fragments_duplicated;
    partition_drops = t.tallies.t_partition_drops;
    bytes_sent = t.tallies.t_bytes_sent;
  }

let reset_stats t = t.tallies <- fresh_tallies ()
