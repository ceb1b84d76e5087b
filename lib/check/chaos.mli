(** Fault injection drivers shared by scenarios and tests.

    This is the crash-restart machinery that used to live as private
    helpers in [test_chaos.ml], made reusable: a way to run an anonymous
    client process inside a world, and a deterministic crash scheduler
    parameterised by a {!Profile.t}. *)

module Clock = Dcp_sim.Clock
module Runtime = Dcp_core.Runtime

val driver : Runtime.world -> at:Runtime.node_id -> name:string -> (Runtime.ctx -> unit) -> unit
(** Register a one-off guardian definition [name] whose init runs [body],
    and create an instance at node [at].  Names must be unique per world. *)

val schedule_crashes :
  Runtime.world ->
  rng:Dcp_rng.Rng.t ->
  profile:Profile.t ->
  nodes:Runtime.node_id list ->
  horizon:Clock.time ->
  unit
(** Plan crash-restart cycles over [nodes] up to [horizon], following the
    profile's [crash_every]/[crash_outage] (no-op when the profile has no
    crash schedule or [nodes] is empty).  The profile's
    [max_concurrent_crashes] bounds how many nodes may be down at once
    (at the default 1 a crash only targets an up node), and a final sweep
    shortly after [horizon] restarts anything still down, so
    quiescent-point oracles always see a live system.  The plan is drawn
    from [rng] up front, the same way at every shard count. *)

val faults_end : profile:Profile.t -> horizon:Clock.time -> Clock.time
(** The instant by which {!schedule_crashes} over [horizon] has fired its
    last event: the restore sweep at [horizon + crash_outage + 1 s] (or
    later, should a period stretched by {!Profile.scale} let a planned
    restart run past it), and [horizon] itself when the profile has no
    crash schedule.  From then on the plan crashes and restarts nothing, so
    a runner may stop a world there once its own work is done. *)
