(** Recoverable key-value store: a WAL plus CRC-framed checkpoints.

    The building block guardians use for per-resource permanence of effect
    (§2.2).  Mutations are logged before being applied to the in-memory
    table; {!checkpoint} frames the table as a durable {!Checkpoint} blob
    and compacts the log; after a crash, {!recover} rebuilds the table from
    the newest intact checkpoint plus the log suffix — O(suffix), not
    O(log).  Two checkpoint generations are retained and the log is only
    truncated up to the {e older} one, so a checkpoint that rots at rest
    still has the full suffix it needs behind the previous generation.

    A store may carry a {!Disk} fault injector ([?disk] at {!create}):
    appends then stall for bounded simulated time, a crash can tear or drop
    un-flushed records, and flushed state can rot.  Recovery never raises
    on damage — rotted records are salvaged from their flush mirrors or
    quarantined (skipped and counted), and corrupt checkpoints fall back a
    generation.  Keys and values are strings — higher layers store encoded
    {!Dcp_wire.Value} externals.

    Inspection: {!encode_set}, {!encode_remove}, {!size} and
    {!damage_newest_checkpoint} are called only by tests, which check the
    log's records and crash damage through them. *)

type t

val create : ?disk:Disk.spec * Dcp_rng.Rng.t -> ?checkpoint_every:int -> unit -> t
(** [?disk] attaches a fault injector built over its own RNG stream (give
    it a {!Dcp_rng.Rng.split} of the owner's stream).  [?checkpoint_every]
    auto-checkpoints after that many mutations, keeping recovery O(suffix)
    without the owner ever calling {!checkpoint}. *)

val set_stall_handler : t -> (int -> unit) -> unit
(** How a disk stall of [n] simulated ms is served — the runtime installs
    the owning guardian's sleep here.  Default: ignore (tests, bare
    stores). *)

val encode_set : key:string -> string -> string
val encode_remove : key:string -> string
(** The log records of a set and a remove: ["S<klen>:<key><value>"] and
    ["R<klen>:<key>"], [klen] in decimal. *)

val set : t -> key:string -> string -> unit
val remove : t -> key:string -> unit
val get : t -> key:string -> string option
val mem : t -> key:string -> bool
val size : t -> int
val fold : t -> init:'a -> f:(key:string -> string -> 'a -> 'a) -> 'a

val to_alist : t -> (string * string) list
(** All live pairs sorted by key — the deterministic way to enumerate a
    store when the result feeds wire encoding, traces, or oracle verdicts. *)

val checkpoint : t -> unit
(** Frame the current table as a durable checkpoint and truncate every log
    record the retained generations no longer need. *)

val flush : t -> unit
(** Flush the log ({!Wal.flush}): everything appended so far survives any
    crash.  The runtime calls this before a guardian's message leaves the
    node, so acknowledged state is never torn or dropped. *)

val log_length : t -> int
(** Intact log records currently retained. *)

val checkpoint_count : t -> int
(** Retained checkpoint generations (0, 1 or 2). *)

val crash : t -> unit
(** Simulate the node crash: the volatile table is lost; checkpoints and
    log survive.  Only an attached disk injector damages them: it may tear
    or drop un-flushed records and rot flushed state.  A store without one
    loses nothing it logged.  The store is unusable until {!recover}. *)

type recover_report = {
  replayed : int;  (** log records applied on top of the checkpoint *)
  salvaged : int;  (** rotted records restored from their mirrors *)
  quarantined : int;  (** records lost to damage and skipped *)
  checkpoint_fallbacks : int;  (** corrupt checkpoint generations passed over *)
  dropped_unflushed : int;  (** un-flushed records the crash destroyed *)
}

val recover_report : t -> recover_report
(** Rebuild the volatile table from the newest intact checkpoint plus the
    intact log suffix.  Damage is quarantined, never raised on; if any was
    found, a fresh checkpoint is written immediately so redundancy is
    restored.  Recovering a live store is a no-op with an all-zero
    report. *)

val recover : t -> int
(** [recover t] is [(recover_report t).replayed] — the pre-disk-era API. *)

val is_crashed : t -> bool

val durability_check : t -> (unit, string) result
(** Oracle hook: rebuild the state a recovery would produce right now
    (newest intact checkpoint + intact log suffix) and compare it to the
    live table.  [Error] pinpoints the first divergent key — if this ever
    fires, write-ahead discipline was broken somewhere. *)

val damage_newest_checkpoint : t -> bool
(** Test hook: flip one byte inside the newest checkpoint frame (a tear
    landing mid-checkpoint).  Returns [false] when no checkpoint exists. *)
