(** Array-backed 4-ary min-heap, parameterised by an explicit comparison.

    Used as the event queue of the simulation {!Engine}; also exposed for
    tests and benchmarks.  Sifts use swap-free hole insertion and the
    4-ary layout halves tree depth, which matters because every shard of
    a world pays a push+pop per event.  Not thread safe (each heap is
    owned by exactly one shard, which runs on one domain). *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
(** [create ~cmp] is an empty heap ordered by [cmp] (minimum first). *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
(** Smallest element without removing it. *)

val pop : 'a t -> 'a option
(** Remove and return the smallest element. *)

val pop_exn : 'a t -> 'a
(** @raise Invalid_argument on an empty heap. *)

val filter : 'a t -> ('a -> bool) -> unit
(** [filter h keep] drops every element for which [keep] is false, in
    O(length).  The pop order of the survivors is unchanged. *)

val clear : 'a t -> unit

val to_list : 'a t -> 'a list
(** Elements in unspecified order (heap order, not sorted). *)

val of_list : cmp:('a -> 'a -> int) -> 'a list -> 'a t

val check_invariant : 'a t -> bool
(** [check_invariant h] is [true] iff every parent is <= its children.
    Exposed for property tests. *)
