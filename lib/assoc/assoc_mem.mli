(** The associative memory of §3.3.

    "Consider an associative memory abstract type, which provides lookup of
    items in an associative memory on the basis of a key ...  Suppose that
    on node A the representation makes use of a hash table, while on node B
    the representation uses a tree.  A possible external rep might be a
    sequence of items with associated keys.  Then encode on node A would
    build a sequence of key-item pairs from the hash table representation,
    and decode on node B would construct a tree representation from such a
    sequence."

    Both representations are implemented here — a hash table and an AVL
    tree — with one {!external_rep} shared system-wide.  {!transmit_hash}
    and {!transmit_tree} are the per-node implementations of the same
    transmittable type. *)

open Dcp_wire

type t

type rep_kind = Hash | Tree

val create : rep:rep_kind -> t
val rep_kind : t -> rep_kind

val add_item : t -> key:string -> Value.t -> unit
(** Insert or replace the item under [key]. *)

val get_item : t -> key:string -> Value.t option
val remove_item : t -> key:string -> unit
val size : t -> int
val mem : t -> key:string -> bool

val to_alist : t -> (string * Value.t) list
(** Pairs in ascending key order, whatever the representation. *)

val of_alist : rep:rep_kind -> (string * Value.t) list -> t

val equal : t -> t -> bool
(** Representation-independent: equal contents. *)

val tree_is_balanced : t -> bool
(** AVL invariant check for property tests; [true] for hash reps. *)

(** {1 Transmission} *)

val transmit_hash : t Transmit.impl
(** Node-A implementation: decodes into a hash table.  Both
    implementations share one external rep, a list of (key, item) tuples —
    the paper's "sequence of items with associated keys". *)

val transmit_tree : t Transmit.impl
(** Node-B implementation: decodes into an AVL tree. *)

val register : Transmit.registry -> unit
(** Record the (single, system-wide) external rep in a world's registry. *)
