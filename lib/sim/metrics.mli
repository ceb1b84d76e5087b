(** Measurement primitives for experiments.

    Counters, gauges and log-bucketed histograms.  Histograms store samples
    in exponentially sized buckets (HDR-style, 5% resolution) so latency
    distributions over nine orders of magnitude stay cheap; quantiles are
    estimated at bucket midpoints.  A {!registry} groups the instruments a
    scenario creates so a report can render them all at once.  Get-or-create
    by name is O(1) (hashed), so per-message code may look instruments up by
    name — though hot paths should still resolve the handle once and reuse
    it.  Reports list instruments in creation order.

    Inspection: {!samples}, {!hist_min}, {!hist_max} and {!histograms} are
    called only by tests, which check recorded observations through them. *)

type counter
type gauge
type histogram

type registry

val registry : unit -> registry

(** {1 Counters} *)

val counter : registry -> string -> counter
(** Get-or-create by name. *)

val incr : counter -> unit
val add : counter -> int -> unit
val count : counter -> int

(** {1 Gauges} *)

val gauge : registry -> string -> gauge
val set_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

(** {1 Histograms} *)

val histogram : registry -> string -> histogram
val observe : histogram -> float -> unit

val samples : histogram -> int
val mean : histogram -> float
(** 0. when empty. *)

val hist_min : histogram -> float
val hist_max : histogram -> float

val quantile : histogram -> float -> float
(** [quantile h q] for [q] in [0,1]; 0. when empty.  Approximate (bucket
    midpoint), with relative error bounded by the bucket width (~5%). *)

val merge : registry list -> registry
(** Merge registries into a fresh snapshot: counters sum, gauges keep the
    maximum, histograms add bucket-wise.  Used by the sharded runtime to
    present one world-level view over per-shard registries; mutating the
    result does not touch the inputs. *)

(** {1 Reporting} *)

val counters : registry -> (string * int) list
val histograms : registry -> (string * histogram) list

val pp_report : Format.formatter -> registry -> unit
(** Render every instrument: counters, gauges, and histogram summaries
    (n / mean / p50 / p95 / p99 / max). *)
