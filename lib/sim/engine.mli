(** Discrete-event simulation engine.

    A single-threaded event loop over a virtual clock.  Events are callbacks
    scheduled at absolute virtual times; ties are broken by scheduling order,
    so a run is fully deterministic.  Timers can be cancelled, which is how
    the runtime implements receive-with-timeout.

    Inspection: {!is_cancelled} is called only by tests, which check
    cancellation through it; {!step} also by the allocation ledger's
    schedule+step row. *)

type t

type timer
(** Handle to a scheduled event, usable for cancellation. *)

val create : unit -> t

val now : t -> Clock.time
(** Current virtual time. *)

val schedule : t -> at:Clock.time -> (unit -> unit) -> timer
(** [schedule t ~at f] runs [f] when the virtual clock reaches [at].
    Scheduling in the past is clamped to [now t]. *)

val schedule_after : t -> delay:Clock.time -> (unit -> unit) -> timer
(** [schedule_after t ~delay f] is [schedule t ~at:(now t + delay) f]. *)

val cancel : timer -> unit
(** Cancelling an already-fired or already-cancelled timer is a no-op.
    Cancelled timers are purged from the queue once they outnumber the
    live ones, so a loop that schedules and cancels keeps a bounded
    queue. *)

val is_cancelled : timer -> bool

val pending : t -> int
(** Number of scheduled, uncancelled events. *)

exception Livelock of { at : Clock.time; events : int }
(** Raised by {!step} (and so by every [run]) when more events than a
    fixed bound run in a row at one virtual instant [at]: a loop that
    never lets time move, such as two handlers answering each other over
    a zero-latency link.  The bound is far above any run a working
    simulation makes. *)

val step : t -> bool
(** Execute the next event, advancing the clock. [false] if none remain.
    @raise Livelock past the bound on events at one instant. *)

val run : t -> unit
(** Run until no events remain. *)

val run_until : t -> Clock.time -> unit
(** Run every live event with time <= the limit and none after it; the
    clock is then left at the limit (or where it was, if already past). *)

val run_for : t -> Clock.time -> unit
(** [run_for t d] is [run_until t (now t + d)]. *)

val events_executed : t -> int
(** Total events executed so far (for sanity checks and benchmarks). *)

val next_time : t -> Clock.time option
(** Time of the earliest queued timer, possibly a cancelled one not yet
    purged — a lower bound on when the next live event fires.  Lets a
    sharded driver skip empty epoch windows instead of stepping through
    them. *)
