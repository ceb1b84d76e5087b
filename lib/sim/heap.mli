(** Array-backed 4-ary min-heap, parameterised by an explicit comparison.

    Used as the event queue of the simulation {!Engine}; also exposed for
    benchmarks.  Sifts use swap-free hole insertion and the
    4-ary layout halves tree depth, which matters because every shard of
    a world pays a push+pop per event.  Not thread safe (each heap is
    owned by exactly one shard, which runs on one domain). *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
(** [create ~cmp] is an empty heap ordered by [cmp] (minimum first). *)

val length : 'a t -> int

val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a
(** Smallest element without removing it.
    @raise Invalid_argument on an empty heap. *)

val pop : 'a t -> 'a
(** Remove and return the smallest element.
    @raise Invalid_argument on an empty heap. *)

val filter : 'a t -> ('a -> bool) -> unit
(** [filter h keep] drops every element for which [keep] is false, in
    O(length).  The pop order of the survivors is unchanged. *)
