(** Multi-seed sweeps over the fault-profile matrix.

    A sweep runs one scenario over [seeds] consecutive seeds for each
    profile, collecting failures.  Because every run is a pure function of
    its (seed, profile, horizon, workload), two identical sweeps yield the
    same failing-seed set — the replay contract the CLI exposes. *)

type failure = {
  profile : string;
  seed : int;
  reason : string;
}

type t = {
  scenario : string;
  profiles : string list;
  seed_base : int;
  seeds : int;  (** seeds per profile *)
  runs : int;  (** total scenario executions *)
  failures : failure list;  (** in (profile, seed) run order *)
  wall_s : float;
}

val run :
  ?horizon:Dcp_sim.Clock.time ->
  ?workload:int ->
  ?shards:int ->
  ?parallel:bool ->
  Scenario.t ->
  profiles:Profile.t list ->
  seed_base:int ->
  seeds:int ->
  t

val pp : Format.formatter -> t -> unit

val write_json : path:string -> t list -> unit
(** Write the [dcp.check.sweep/v1] summary (seeds run, failures, wall
    time), the CHECK_sweep.json counterpart of BENCH_micro.json. *)
