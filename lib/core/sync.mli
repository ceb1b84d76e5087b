(** Intra-guardian synchronization: monitors and keyed locks (§2.3).

    "The processes within a single guardian may share objects, and
    communicate with one another via these shared objects."  Figure 1c has
    forked processes synchronize "using shared data, e.g., a monitor
    providing operations start_request(date) and end_request(date)".

    Because the simulator is single-threaded these are *logical* exclusion
    devices: they matter whenever a process must hold a resource across a
    blocking operation (a receive, a sleep, a nested send/await).  Mutex
    wakeups are FIFO and scheduled through the engine, so lock handoff is
    fair and deterministic.

    Paper API (§2.3, Figure 1c): {!locked}, {!broadcast}, {!with_unit} and
    {!end_request} are reached only by tests; they stay as the monitor and
    keyed-lock operations of Figure 1c. *)

type mutex

val mutex : Dcp_sim.Engine.t -> mutex

val lock : mutex -> unit
(** Blocks (inside a process) until the mutex is free. Not reentrant. *)

val unlock : mutex -> unit
(** @raise Invalid_argument if the mutex is not held. *)

val with_lock : mutex -> (unit -> 'a) -> 'a
val locked : mutex -> bool

type condition

val condition : Dcp_sim.Engine.t -> condition

val wait : condition -> mutex -> unit
(** Atomically release the mutex and block; on signal, re-acquire the mutex
    before returning (Mesa semantics — re-check the predicate in a loop). *)

val signal : condition -> unit
(** Wake one waiter (no-op if none). *)

val broadcast : condition -> unit

(** {1 Counting semaphores}

    Model of a pool of identical resources — a node's processors, say
    (§1.1: "each node consists of one or more processors"). *)

type semaphore

val semaphore : Dcp_sim.Engine.t -> int -> semaphore
(** [semaphore engine n] has [n] units. @raise Invalid_argument if n <= 0. *)

val acquire : semaphore -> unit
(** Take a unit, blocking (FIFO) while none is free. *)

val release : semaphore -> unit
(** @raise Invalid_argument if all units are already free. *)

val with_unit : semaphore -> (unit -> 'a) -> 'a
val available : semaphore -> int

(** {1 Keyed locks}

    The paper's [start_request(date)] / [end_request(date)] monitor: at most
    one holder per key, independent keys proceed in parallel. *)

type 'k keyed_lock

val keyed_lock : Dcp_sim.Engine.t -> 'k keyed_lock

val end_request : 'k keyed_lock -> 'k -> unit
(** @raise Invalid_argument if [k] is not held. *)

val with_key : 'k keyed_lock -> 'k -> (unit -> 'a) -> 'a
(** Block until no other process holds [k], run the body holding it, and
    release it however the body exits. *)
