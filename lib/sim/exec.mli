(** Domain execution for sharded worlds — the shard-runtime module.

    This is the only module in the tree that may use OCaml's domain
    primitives ([Domain], [Atomic], [Mutex], [Condition]); the determinism
    lint flags them anywhere else.  The rest of the runtime keeps a
    single-writer discipline: each shard's engine, network, metrics and RNG
    streams are touched only by the domain running that shard, and data
    crosses shard boundaries only through the epoch-barrier outbox exchange
    that the {!round} caller performs while every worker is parked.

    Determinism argument: within a round no shard reads another shard's
    state, so the result of a round is the product of per-shard sequential
    executions — identical whether the shards run on [n] domains or are
    iterated in order on one.  The barrier (mutex + condition, two phases)
    gives the caller a happens-before edge over every worker's round. *)

type pool
(** [shards - 1] worker domains plus the calling domain, which runs
    shard 0.  [shards = 1] spawns nothing and {!round} degenerates to a
    direct call. *)

val round : pool -> (int -> unit) -> unit
(** [round p work] runs [work i] for every shard [i] in [0, shards)] —
    concurrently on the pool's domains ([work 0] on the caller) — and
    returns once all have finished.  [work] must touch only shard-[i]
    state. *)

val with_pool : shards:int -> (pool -> 'a) -> 'a
(** Spawn the worker domains, run, and always wake and join every worker
    (no leaked domains). *)

(** {1 Domain-local state}

    For module-level mutable state that is logically per-execution-thread
    (e.g. the current-process register of the effects scheduler): one value
    per domain, so shards cannot observe each other's. *)

type 'a domain_local

val domain_local : (unit -> 'a) -> 'a domain_local
val local_get : 'a domain_local -> 'a
val local_set : 'a domain_local -> 'a -> unit
