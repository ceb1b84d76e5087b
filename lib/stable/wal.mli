(** Write-ahead log on simulated stable storage.

    §2.2: "processes in the guardian save recovery data as needed (by, e.g.,
    logging it in storage that will survive a node crash), and the guardian
    provides a recovery process that is started after a node crash to
    interpret the recovery data."

    A [Wal.t] models that crash-surviving storage.  Records are appended
    with a sequence number (LSN) and a CRC.  Appends are volatile until
    {!flush} (the runtime flushes before any message leaves the node, so
    externalized state is always flush-protected); a crash may tear or drop
    un-flushed records, and bit rot may damage flushed ones (see {!Disk}).
    Flushing also mirrors each record — the model of a paired journal copy —
    so a single rotted byte is salvageable at recovery.

    Reads verify CRCs and {e quarantine} damaged records: a bad record is
    skipped, never replayed and never allowed to hide the intact suffix
    behind it.  {!scrub} is the recovery-time pass that makes quarantine
    physical — salvaging rotted records from their mirrors and dropping the
    unrecoverable ones — after which the log is fully intact again.

    Inspection: {!records} and {!storage_bytes} are called only by tests,
    which check what the log holds through them. *)

type t

type lsn = int

val create : unit -> t

val append : t -> string -> lsn
(** Durably append a record; returns its LSN (0-based, increasing; dense
    until a crash drops an un-flushed suffix, which burns the dropped
    LSNs).  Amortized O(1). *)

val length : t -> int
(** Number of intact records.  Each record's CRC is verified at most once
    across the log's lifetime (a verified-prefix cache) while the log is
    undamaged; records sitting after a damaged one are re-checked per call
    until {!scrub} compacts them back into the prefix. *)

val replay : t -> (lsn -> string -> unit) -> unit
(** Apply every intact record in LSN order, skipping damaged ones. *)

val replay_from : t -> lsn:lsn -> (lsn -> string -> unit) -> unit
(** [replay_from t ~lsn f] replays only intact records with LSN >= [lsn]
    (checkpoint recovery: the suffix not covered by the snapshot).  Finds
    the start by binary search — O(log n + suffix). *)

val records : t -> string list

val truncate_prefix : t -> upto:lsn -> unit
(** Discard records with LSN < [upto] (checkpointing).  Replay still reports
    original LSNs. *)

val first_lsn : t -> lsn
val next_lsn : t -> lsn

val flush : t -> unit
(** Mark every current record flushed: crash-time tears and drops can no
    longer touch them, and each gains a mirror copy for rot salvage.
    O(new records since the last flush); a no-op when nothing is pending. *)

val flushed_count : t -> int
(** Records in the flushed prefix. *)

val unflushed : t -> int
(** Records appended since the last {!flush}. *)

type scrub_report = { salvaged : int; quarantined : int }

val scrub : t -> scrub_report
(** Recovery-time integrity pass: every damaged record is restored from its
    mirror when the mirror still matches the CRC ([salvaged]), and
    physically dropped otherwise ([quarantined]).  Intact records —
    including those after a quarantined one — always survive.  Never
    raises; afterwards the log verifies end to end. *)

(** {1 Crash-time damage} — called by {!Store.crash}, driven by {!Disk}
    draws.  Flushed records are never torn or dropped. *)

val tear_unflushed : t -> bool
(** Corrupt the last record iff it is un-flushed (a torn in-flight write).
    Returns whether a tear happened; draws nothing. *)

val drop_unflushed : t -> int
(** Lose the whole un-flushed suffix (it never reached the platter).
    Returns how many records vanished. *)

val rot_record : t -> Disk.t -> index:int -> sector:bool -> unit
(** Flip one byte of flushed record [index] (the victim byte drawn from the
    disk's stream).  With [sector], the mirror is destroyed too, making the
    record unsalvageable. *)

val storage_bytes : t -> int
(** Total payload bytes held, for accounting. *)
