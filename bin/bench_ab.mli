(** A/B comparison of end-to-end benchmark runs: [bench_diff.exe ab].

    Two builds of [dcp_bench.exe], the parent's and the change's, run the
    same arguments for a number of pairs, alternating which side runs
    first, since a shared host drifts over minutes.  For each end-to-end
    metric of [BENCHMARK.json] the report gives each side's median and
    quartiles over the pairs, the change's wins, whether a gain may be
    claimed, and whether the change stays within the metric's bound. *)

type metric = {
  name : string;
  unit_ : string;
  higher_is_better : bool;
  bound : float;  (** the share by which the metric may worsen *)
}

val metrics_of_benchmark : Dcp_json.Json.t -> metric list
(** The [end_to_end] metrics of a parsed [BENCHMARK.json].
    @raise Failure on another shape. *)

type spread = { median : float; q1 : float; q3 : float }

val spread : float list -> spread
(** Median and quartiles, interpolated between the two nearest samples.
    @raise Invalid_argument on an empty list. *)

type bound_status =
  | Within  (** the change's median is no worse than the bound allows *)
  | Worse  (** worse than the bound allows *)
  | Unresolved
      (** within or not, the parent's own runs spread wider than the
          bound, and not every change run beats every parent run *)

type verdict = {
  metric : metric;
  parent : spread;
  change : spread;
  wins : int;  (** pairs in which the change reads better; ties count for neither *)
  pairs : int;
  claim : bool;
      (** a gain may be claimed: at least nine wins in ten pairs, and the
          medians apart, in the change's favour, by more than the
          parent's interquartile range *)
  bound_status : bound_status;
}

val verdict : metric -> (float * float) list -> verdict
(** The verdict on (parent, change) readings, one per pair.
    @raise Invalid_argument on no pairs. *)

val pp_verdict : Format.formatter -> verdict -> unit

val main : string list -> int
(** [main args]: the subcommand on its arguments,
    [[--pairs N] [--benchmark FILE] PARENT.exe CHANGE.exe [-- ARGS...]].
    Runs [2N] processes and prints the report; the exit code is 0, 1 when a
    run was not correct or a metric is worse than its bound, or 2 on a
    usage error or a run whose result line does not parse. *)
