(** Topologies: which link a (source, destination) node pair traverses.

    §1.1 assumes only that the network "supports communication between any
    pair of nodes" — it may be shorthaul, longhaul, "or some combination with
    gateways in between; these details are invisible at the programmer
    level".  A topology captures those invisible details as an effective
    per-pair link; every world here is a full mesh of one link. *)

type node_id = int

type t

val nodes : t -> node_id list

val mem : t -> node_id -> bool
(** Whether the node is one of the topology's. *)

val link : t -> src:node_id -> dst:node_id -> Link.t
(** Effective link for a pair.  A node talking to itself gets a perfect
    link.  @raise Invalid_argument for unknown nodes. *)

val full_mesh : n:int -> Link.t -> t
(** [n] nodes 0..n-1, every distinct pair connected by the given link. *)
