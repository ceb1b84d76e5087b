(** Wing–Gold-style linearizability checker for register/snapshot
    histories.

    A history is a set of {!event}s: per-client invocation/response records
    of operations against an integer-valued key → value memory.  The
    checker searches for a linearization — a total order of the operations
    that (a) respects real time (if one operation's response precedes
    another's invocation, it is ordered first) and (b) is a legal
    sequential execution of a map of integer registers (every read returns
    the latest written value, every snapshot the whole current map).

    Pending operations (invoked, never answered — the client timed out) are
    handled per the standard completion rule: a pending {e write} may be
    linearized at any point after its invocation or dropped entirely (the
    effect of a timed-out write is unknown); pending reads and snapshots
    constrain nothing and are discarded.

    The search is exponential in the worst case but memoised on
    (completed-set, resulting state), and — when the history contains no
    snapshot operations — split per key first, since linearizability is
    compositional over disjoint objects.  Failure reasons are deterministic
    (the search order is fixed by the sorted history), which is what lets
    sweeps and {!Shrink} treat them as data.

    Inspection: {!encode_event} and {!decode_event} are called only by
    tests, which check the recorded history format through them. *)

type op =
  | Write of string * int
  | Read of string
  | Snapshot

type reply =
  | Acked  (** a write's acknowledgement *)
  | Value_is of int option  (** a read's result; [None] = key unknown *)
  | State_is of (string * int) list  (** a snapshot's result, key-sorted *)

type event = {
  client : int;
  op : op;
  reply : reply option;  (** [None]: no response observed (pending) *)
  inv : int;  (** invocation time (virtual) *)
  resp : int;  (** response time; [max_int] when pending *)
}

val check : ?max_states:int -> event list -> (unit, string) result
(** [Error reason] when no linearization exists; [Error] with a
    ["search budget"] reason if [max_states] (default 200k) memoised states
    were explored without an answer. *)

(** {1 Store capture}

    Workload drivers record one event per operation into their own stable
    store under ["h:<seq>"] keys; oracles read them back with
    {!events_in_store}, making the checker a pure function of the finished
    world — the same accessor pattern as every other oracle.  Keys must not
    contain spaces, commas or ['=']. *)

val record : Dcp_core.Runtime.ctx -> seq:int -> event -> unit

val encode_event : event -> string
val decode_event : string -> event option

val events_in_store : Dcp_stable.Store.t -> event list
(** All recorded events in recording order; undecodable records are
    skipped. *)
