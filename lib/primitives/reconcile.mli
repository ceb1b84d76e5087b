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
    initiating its own round.

    Inspection: {!view} is called only by tests, which check the
    incremental table against a sorted rebuild through it. *)

open Dcp_wire

(** {1 Stamps} *)

type stamp = int * int
(** Lamport counter, then origin id as the total-order tiebreak. *)

val stamp_compare : stamp -> stamp -> int
val stamp_value : stamp -> Value.t

val stamp_to_string : stamp -> string
val stamp_of_string : string -> stamp option
(** Compact text form used by the stable-store mirror. *)

(** {1 Digest entries} *)

val stamp_ty : stamp Command.ty
val entry_ty : (string * stamp) Command.ty
(** A stamp and a digest entry as typed command arguments. *)

val entry_value : string * stamp -> Value.t
val entry_compare : string * stamp -> string * stamp -> int

(** {1 Table hashes}

    A replica summarises its key → stamp table in one 64-bit hash, the XOR
    of {!entry_hash} over its entries, which it updates in O(1) as an entry
    is added or replaced.  Two tables with the same hash are taken to be
    equal (a false match needs a 64-bit collision). *)

val entry_hash : string * stamp -> int64

val table_hash : (string * stamp) list -> int64
(** The XOR of {!entry_hash} over the entries; [0L] for the empty table. *)

val hash_value : int64 -> Value.t
(** The wire form: an 8-byte string, which every codec configuration
    encodes (an [Int] would not fit [Codec.config_1979]'s 24 bits). *)

val hash_string : int64 -> string
val hash_of_string : string -> int64 option
(** The string inside {!hash_value}, and back; [None] unless 8 bytes. *)

(** {1 Key windows}

    A digest only covers a contiguous key range [\[lo, hi)] ([hi = None]
    means unbounded), so a table larger than one byte budget is reconciled
    across rounds by a moving cursor. *)

type window = { lo : string; hi : string option }

val window_ok : window -> bool
(** Reject adversarial windows with [hi <= lo]. *)

(** {1 Byte budgeting} *)

val default_budget : int
(** 32 KiB, the classic gossip transport cap. *)

val chunks : budget:int -> size:('a -> int) -> 'a list -> 'a list list
(** Split into consecutive runs, each a greedy run of entries whose sizes
    fit the budget less 96 bytes reserved for the command, window bounds
    and list framing (so that budgeting the entries budgets the encoded
    message).  Each run takes at least one entry, so an oversized single
    entry cannot stall the cursor forever. *)

(** {1 The table and its digest view}

    A replica's key → (value, stamp) table: mutable, kept sorted by key
    in two arrays updated in place, with the bytes of each entry's digest
    entry ({!entry_ty}'s encoding, which by §3.3 depends on the entry
    alone), so that a digest window is written as one run of those bytes,
    sized by their sum, and compared with a received window byte for
    byte.  Each read finds its window's first key by binary search and
    walks that window only. *)

type 'v table

val create : unit -> 'v table
(** A new, empty table.  Tables share nothing: each replica makes its own. *)

val find : 'v table -> string -> ('v * stamp) option

type outcome =
  | Stale  (** the table holds the key at a stamp at least as large; unchanged *)
  | Added  (** the key was absent *)
  | Replaced of stamp  (** the key held this older stamp *)

val update : 'v table -> key:string -> value:'v -> stamp:stamp -> outcome
(** Last writer wins, in place: the table takes the entry unless it is
    [Stale]. *)

val take_window :
  budget:int -> 'v table -> from:string -> (string * stamp) Command.run * string option
(** The entries from key [from] on that fit [budget] (at least one, as in
    {!chunks}, each sized as {!view} gives it), as one run of their bytes,
    and the first key past them, [None] at the end. *)

val held_in : 'v table -> window -> (string * stamp) list
(** The entries inside the window ([lo <= key < hi]), in key order. *)

val holds : 'v table -> window -> (string * stamp) Command.run -> bool
(** Whether the run's bytes are exactly those of the entries inside the
    window: then its entries are {!held_in}'s, in order, and as many. *)

val view : 'v table -> (string * stamp * int) list
(** Every entry with its digest size: [Codec.encoded_size] of
    {!entry_value}, or [max_int] when unencodable. *)

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
