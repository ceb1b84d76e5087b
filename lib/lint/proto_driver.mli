(** Orchestration of the whole-program proto tier. *)

type outcome = {
  findings : Finding.t list;  (** all, sorted, baseline-marked *)
  active : Finding.t list;  (** unbaselined, error tier *)
  warnings : Finding.t list;  (** unbaselined, warning tier *)
  stale_baseline : string list;
  units_scanned : int;
  edges : Proto_flow.edge list;
  report : Dcp_json.Json.t;
  dot : string;  (** graphviz export of [edges] *)
}

val analyze :
  root:string -> units:(string * string) list -> baseline:Baseline.t -> outcome
(** Pure entry point over in-memory [(path, source)] pairs — the fixture
    tests drive this directly.  [.mli] pairs are the interfaces the
    unused-export rule checks; [.ml] pairs under [bench/] and [test/] are
    read only as its sources of uses. *)

val run : root:string -> baseline_path:string -> unit -> outcome
(** Discover the whole program — every [.ml] under {!Driver.default_dirs},
    [bench/], [bench/e2e/] and [test/], and every [.mli] under [lib/] — and
    analyze it against the proto baseline file. *)

val pp_outcome : Format.formatter -> outcome -> unit
