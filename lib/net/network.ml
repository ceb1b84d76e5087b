module Clock = Dcp_sim.Clock
module Engine = Dcp_sim.Engine
module Rng = Dcp_rng.Rng

(* Node-keyed tables, hashed by identity rather than through
   [Hashtbl.hash]'s C call; nothing folds over them. *)
module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)

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
  partials_expired : int;
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
  mutable t_partials_expired : int;
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
    t_partials_expired = 0;
  }

(* A partial reassembly whose first fragment arrived longer ago than this
   can no longer complete: every fragment of a message leaves at its send,
   and no link delays one by nearly this much (exponential jitter tops out
   near 37 times its mean).  A node's partials are swept for it at most
   once per [expire_after], from its next offer, so no timer (and no
   engine event) is involved. *)
let expire_after = Clock.s 60

(* One node's reassembly buffer and the time its next sweep is due. *)
type inbox = { partials : Packet.Reassembly.t; mutable next_sweep : Clock.time }

type t = {
  engine : Engine.t;
  rng : Rng.t;
  topology : Topology.t;
  mtu : int;
  handlers : (src:node_id -> string -> unit) Int_tbl.t;
  reassembly : inbox Int_tbl.t;
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
    handlers = Int_tbl.create 16;
    reassembly = Int_tbl.create 16;
    groups = None;
    next_msg_id = 0;
    tallies = fresh_tallies ();
  }

let topology t = t.topology
let set_handler t node f = Int_tbl.replace t.handlers node f
let clear_handler t node = Int_tbl.remove t.handlers node

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

let inbox_for t node =
  match Int_tbl.find t.reassembly node with
  | inbox -> inbox
  | exception Not_found ->
      let inbox = { partials = Packet.Reassembly.create (); next_sweep = Clock.zero } in
      Int_tbl.add t.reassembly node inbox;
      inbox

let sweep t inbox now =
  if Clock.compare now inbox.next_sweep >= 0 then begin
    let expired =
      Packet.Reassembly.drop_older_than inbox.partials ~before:(Clock.diff now expire_after)
    in
    t.tallies.t_partials_expired <- t.tallies.t_partials_expired + expired;
    inbox.next_sweep <- Clock.add now expire_after
  end

let deliver_fragment t frag =
  (* Re-check the partition at arrival time: packets in flight when a
     partition forms are lost, like packets on a cut wire. *)
  if partitioned t ~src:frag.Packet.src ~dst:frag.Packet.dst then
    t.tallies.t_partition_drops <- t.tallies.t_partition_drops + 1
  else if not (Packet.intact frag) then
    t.tallies.t_fragments_corrupted <- t.tallies.t_fragments_corrupted + 1
  else begin
    let inbox = inbox_for t frag.Packet.dst in
    let now = Engine.now t.engine in
    sweep t inbox now;
    match Packet.Reassembly.offer inbox.partials ~now frag with
    | None -> ()
    | Some (src, body) -> (
        match Int_tbl.find t.handlers frag.Packet.dst with
        | exception Not_found -> ()
        | handler ->
            t.tallies.t_messages_delivered <- t.tallies.t_messages_delivered + 1;
            handler ~src body)
  end

let schedule_delivery t frag delay =
  ignore (Engine.schedule_after t.engine ~delay (fun () -> deliver_fragment t frag))

(* One fragment offered to the link, and the rest after it: top-level
   functions, so a send allocates no closure to walk its fragments. *)
let transmit_one t link frag =
  let size = Packet.wire_size frag in
  t.tallies.t_fragments_sent <- t.tallies.t_fragments_sent + 1;
  t.tallies.t_bytes_sent <- t.tallies.t_bytes_sent + size;
  match Link.transmit link t.rng ~size with
  | Link.Drop -> t.tallies.t_fragments_lost <- t.tallies.t_fragments_lost + 1
  | Link.Corrupt_deliver delay -> schedule_delivery t (Packet.corrupt t.rng frag) delay
  | Link.Deliver delay -> schedule_delivery t frag delay
  | Link.Deliver_twice (first, second) ->
      t.tallies.t_fragments_duplicated <- t.tallies.t_fragments_duplicated + 1;
      schedule_delivery t frag first;
      schedule_delivery t frag second

let rec transmit_all t link = function
  | [] -> ()
  | frag :: rest ->
      transmit_one t link frag;
      transmit_all t link rest

let send t ~src ~dst body =
  t.tallies.t_messages_sent <- t.tallies.t_messages_sent + 1;
  if partitioned t ~src ~dst then
    t.tallies.t_partition_drops <- t.tallies.t_partition_drops + 1
  else begin
    let msg_id = t.next_msg_id in
    t.next_msg_id <- t.next_msg_id + 1;
    let link = Topology.link t.topology ~src ~dst in
    transmit_all t link (Packet.fragment ~src ~dst ~msg_id ~mtu:t.mtu body)
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
    partials_expired = t.tallies.t_partials_expired;
  }

let reset_stats t = t.tallies <- fresh_tallies ()
