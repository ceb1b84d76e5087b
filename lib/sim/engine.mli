(** Discrete-event simulation engine.

    A single-threaded event loop over a virtual clock.  An event is data:
    its virtual time, its sequence number, its {!kind} and a payload of
    two values.  Ties in time are broken by scheduling order, so a run is
    fully deterministic.  A kind is made once, as a top-level value of the
    layer that schedules it (a fragment arrival, a body delivery, a
    receive timeout, a process start or wake), so scheduling an event
    allocates the event and nothing else.

    Inspection: {!step} is called only by tests and by the allocation
    ledger's schedule+step row. *)

type t

type ('a, 'b) kind = {
  fire : 'a -> 'b -> unit;  (** run when an event of this kind falls due *)
  live : 'a -> bool;
      (** false once the event is dead, as a receive timeout is once its
          waiter is served: a dead event never fires, never counts as
          executed and never moves the clock *)
}

val always : 'a -> bool
(** The [live] of a kind whose events never die. *)

val create : unit -> t

val now : t -> Clock.time
(** Current virtual time. *)

val post : t -> at:Clock.time -> ('a, 'b) kind -> 'a -> 'b -> unit
(** [post t ~at kind a b] runs [kind.fire a b] when the virtual clock
    reaches [at], unless the event is dead by then.  Scheduling in the
    past is clamped to [now t]. *)

val post_after : t -> delay:Clock.time -> ('a, 'b) kind -> 'a -> 'b -> unit
(** [post_after t ~delay] is [post t ~at:(now t + delay)]. *)

val schedule : t -> at:Clock.time -> (unit -> unit) -> unit
(** A host event, for fault injectors, drivers and tests: [f ()] at [at]. *)

val schedule_after : t -> delay:Clock.time -> (unit -> unit) -> unit

val discard : t -> unit
(** Whoever makes a queued event's [live] false calls [discard] once, so
    {!pending} stays exact.  Dead events stay queued until popped, or
    until they outnumber the live ones and pass a fixed floor, when they
    are all dropped at once: a loop that arms and kills timeouts keeps a
    bounded queue. *)

val pending : t -> int
(** Number of queued live events. *)

exception Livelock of { at : Clock.time; events : int }
(** Raised by {!step} (and so by every [run]) when more events than a
    fixed bound run in a row at one virtual instant [at]: a loop that
    never lets time move, such as two handlers answering each other over
    a zero-latency link.  The bound is far above any run a working
    simulation makes. *)

val step : t -> bool
(** Execute the next live event, advancing the clock. [false] if none
    remain.
    @raise Livelock past the bound on events at one instant. *)

val run : t -> unit
(** Run until no live events remain. *)

val run_until : t -> Clock.time -> unit
(** Run every live event with time <= the limit and none after it; the
    clock is then left at the limit (or where it was, if already past). *)

val run_for : t -> Clock.time -> unit
(** [run_for t d] is [run_until t (now t + d)]. *)

val events_executed : t -> int
(** Total events executed so far (for sanity checks and benchmarks). *)

val next_time : t -> Clock.time option
(** Time of the earliest live event; dead events at the head of the
    queue are dropped on the way.  Lets a sharded driver skip empty epoch
    windows instead of stepping through them. *)
