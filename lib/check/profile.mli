(** Fault profiles: one point in the link-model × crash-schedule matrix.

    The paper's robustness claims (§2.2 crash/recovery, §3.4 lost and
    duplicated messages, §3.5 timeout-driven retry) are claims about *all*
    admissible executions, so the checker sweeps scenarios across a matrix
    of delivery-fault models (perfect/lan/wan/lossy links) crossed with
    crash-restart schedules.  A profile is deterministic data; all
    randomness comes from the scenario seed at run time. *)

module Clock = Dcp_sim.Clock

type t = {
  name : string;
  link : Dcp_net.Link.t;  (** inter-node link model *)
  crash_every : Clock.time option;
      (** mean gap between crash injections; [None] = no crashes *)
  crash_outage : Clock.time;  (** how long a crashed node stays down *)
  max_concurrent_crashes : int;
      (** how many nodes the scheduler may hold down at once.  At [1] a
          crash only targets an up node; above 1 the scheduler crashes
          into existing outages until the bound is reached, so recovery
          runs while peers are down. *)
  disk : Dcp_stable.Disk.spec option;
      (** the storage axis of the matrix: [None] = perfect disks, [Some]
          attaches the fault injector to every guardian store. *)
}

val all : t list
(** The full matrix: [perfect], [lan], [wan], [lossy], [wan+lossy] links,
    each calm, with a crash-restart schedule ([<link>+crash]), and with
    crashes plus flaky disks and overlapping outages
    ([<link>+crash+disk]). *)

val names : string list

val find : string -> t option
(** Look up a profile by name ([find "wan+crash"]). *)

val scale : t -> intensity:float -> t
(** Shrinking knob: scale every fault probability (loss, duplication,
    corruption, and the disk's stall/tear/drop/rot) by [intensity] (clamped
    to [0,1]) and stretch the crash period by [1/intensity];
    [intensity = 0.] disables faults, crashes and the disk injector
    entirely.  [scale t ~intensity:1.] is [t]. *)

val pp : Format.formatter -> t -> unit
