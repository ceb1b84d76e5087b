(** Processes: "the execution of a sequential program" (§2.1).

    Guardians contain one or more processes that share the guardian's
    objects.  A process here is an effect-based coroutine driven by the
    simulation {!Dcp_sim.Engine}: it runs uninterrupted until it blocks
    (receive, sleep, lock) and is resumed by a later simulation event.  The
    whole system is single-threaded, so intra-guardian data sharing needs no
    low-level locking — the {!Sync} monitors exist for the *logical* mutual
    exclusion the paper's Figure 1c needs (holding a resource across a
    blocking receive).

    Blocking is expressed with {!suspend}, which every higher-level blocking
    operation (receive with timeout, mutexes, RPC helpers) is built from.
    Killing a process (node crash, guardian self-destruct) marks it dead;
    any pending resumption is silently dropped, modelling the paper's view
    that a crash simply stops the node's processes.

    Inspection: {!name}, {!state}, {!failure} and {!self} are called only
    by tests, which check a process's life cycle through them. *)

type t

type state =
  | Created  (** spawned, first run not yet scheduled/executed *)
  | Running  (** currently executing *)
  | Blocked  (** suspended, awaiting a resume *)
  | Finished  (** body returned or raised *)
  | Dead  (** killed *)

val spawn : Dcp_sim.Engine.t -> name:string -> (unit -> unit) -> t
(** Create a process whose body starts at the current virtual time (as a
    separate engine event, so the spawner continues first). *)

val name : t -> string
val state : t -> state

val kill : t -> unit
(** Idempotent.  A killed process never runs again; its pending resume (if
    blocked) is dropped. *)

val failure : t -> exn option
(** The exception that terminated the body, if any. *)

(** {1 Operations usable only inside a process body} *)

val suspend : (('a -> unit) -> unit) -> 'a
(** [suspend register] blocks the calling process.  [register] is called
    immediately with a [resume] function; whoever invokes [resume v] (from a
    later engine event) unblocks the process with value [v].  Extra calls to
    [resume] are ignored, as is resuming a killed process. *)

val sleep : Dcp_sim.Engine.t -> Dcp_sim.Clock.time -> unit
(** Block for the given virtual duration. *)

val self : unit -> t option
(** The currently executing process, if any. *)
