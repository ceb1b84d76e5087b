(** Payload-agnostic anti-entropy reconciliation.

    The pure half of the replica's gossip protocol: stamps, digest entries,
    key windows, byte-budgeted packing, and the digest diff that decides
    what a reconciliation round pushes and pulls.  Nothing here touches the
    runtime — the functions are deterministic data transforms, which is what
    lets the replica guardian, the oracles, and the benches share them (and
    what will let higher-order primitives reuse the layer later: entries are
    (key, stamp) pairs regardless of what the values mean).

    Convergence argument (Aspnes, asynchronous message-passing): each
    reconciliation round between two replicas makes their (key → stamp)
    tables equal on the exchanged window, and stamps only grow, so any
    gossip path with eventually-delivered messages drives all tables to the
    pointwise maximum.  The pull half below is what makes a *single* round
    bidirectional — without it convergence relies on the other side
    initiating its own round. *)

open Dcp_wire

(** {1 Stamps} *)

type stamp = int * int
(** Lamport counter, then origin id as the total-order tiebreak. *)

val stamp_compare : stamp -> stamp -> int
val stamp_value : stamp -> Value.t

val stamp_of_value : Value.t -> stamp option
(** [None] for anything but a well-formed stamp (positive counter,
    non-negative origin) — malformed wire input is droppable data, never an
    exception. *)

val stamp_to_string : stamp -> string
val stamp_of_string : string -> stamp option
(** Compact text form used by the stable-store mirror. *)

(** {1 Digest entries} *)

val entry_value : string * stamp -> Value.t
val entry_of_value : Value.t -> (string * stamp) option
val entry_compare : string * stamp -> string * stamp -> int

(** {1 Key windows}

    A digest only covers a contiguous key range [\[lo, hi)] ([hi = None]
    means unbounded), so a table larger than one byte budget is reconciled
    across rounds by a moving cursor. *)

type window = { lo : string; hi : string option }

val window_ok : window -> bool
(** Reject adversarial windows with [hi <= lo]. *)

val in_window : window -> string -> bool

(** {1 Byte budgeting} *)

val default_budget : int
(** 32 KiB, the classic gossip transport cap. *)

val header_allowance : int
(** Bytes reserved out of the budget for command, window bounds and list
    framing, so that budgeting the entries budgets the encoded message. *)

val value_size : Value.t -> int
(** Codec-encoded size; [max_int] when unencodable. *)

val take_within : budget:int -> size:('a -> int) -> 'a list -> 'a list * 'a list
(** Greedy prefix whose sizes fit [budget - header_allowance], plus the
    remainder.  Always takes at least one entry from a non-empty list so an
    oversized single entry cannot stall the cursor forever. *)

val chunks : budget:int -> size:('a -> int) -> 'a list -> 'a list list
(** Split into consecutive runs, each within the budget (modulo the same
    at-least-one-entry progress rule). *)

(** {1 Digest diff} *)

type diff = {
  pulls : string list;  (** keys to request from the digest sender *)
  pushes : string list;  (** keys to send back to the digest sender *)
  max_claimed : stamp option;  (** largest stamp the digest asserted *)
}

val diff : claimed:(string * stamp) list -> held:(string * stamp) list -> diff
(** Merge-walk of two key-sorted entry lists covering the same window:
    [pulls] are keys the sender holds newer or the receiver lacks; [pushes]
    are keys the receiver holds newer or the sender lacks.  [max_claimed]
    feeds Lamport-clock observation (tracked inside the same single pass)
    so a rejoined replica cannot issue writes that lose to stamps it has
    been told about.  One pass, O(|claimed| + |held|), with a physical-
    equality fast path through equal-key/equal-stamp runs — the common
    case between converged replicas. *)
