(** Packets: fragmentation and reassembly.

    §3.3 makes the system "responsible for the low-level protocols involved in
    actually transmitting a message, e.g. breaking a large message into
    packets and reassembling the packets".  A message larger than the MTU is
    split into fragments sharing a message id; the receiver reassembles once
    all fragments of a message have arrived.  Each fragment carries a CRC-32
    so in-flight corruption is detected and the fragment discarded.

    A fragment is a slice of the message body, not a copy: fragmenting
    copies nothing, and reassembling a message whose fragments all arrived
    intact returns the sent body itself. *)

type fragment = {
  src : int;  (** sending node *)
  dst : int;  (** receiving node *)
  msg_id : int;  (** unique per (src, message) *)
  index : int;  (** fragment number, 0-based *)
  count : int;  (** total fragments of the message *)
  body : string;  (** the string this fragment's payload is a slice of *)
  pos : int;  (** where the payload starts in [body] *)
  len : int;  (** payload length *)
  crc : int;  (** CRC-32 of the payload *)
}

val wire_size : fragment -> int
(** Payload plus 24 bytes of header accounting, for sizing
    transmissions. *)

val fragment : src:int -> dst:int -> msg_id:int -> mtu:int -> string -> fragment list
(** Split a message body into CRC-stamped fragments of at most [mtu] payload
    bytes, each a slice of [body].  An empty body yields one empty
    fragment.
    @raise Invalid_argument if [mtu <= 0]. *)

val intact : fragment -> bool
(** [intact f] checks the payload against [f.crc]. *)

val corrupt : Dcp_rng.Rng.t -> fragment -> fragment
(** Flip one random bit of the payload (leaving the CRC stale), modelling a
    transmission error.  The damaged fragment gets a copy of its own slice;
    [body] is never written.  Fragments with empty payloads get a stale
    CRC instead. *)

(** Reassembly buffer for one receiving node. *)
module Reassembly : sig
  type t

  val create : unit -> t

  val offer : t -> now:Dcp_sim.Clock.time -> fragment -> (int * string) option
  (** Accept a fragment; when it completes its message, return
      [(src, whole_body)] and discard the buffered state.  When every
      fragment is a slice of one string in order, [whole_body] is that
      string; otherwise the slices are copied into one new string.  A
      one-fragment message completes at once, without being buffered, so
      each copy of it completes it again.  Duplicate fragments of a
      message being assembled are ignored.  Corrupt fragments must be filtered out by the
      caller before offering — but the payload CRC cannot vouch for the
      header, so [offer] additionally rejects fragments whose geometry is
      implausible ([count <= 0], [index] outside [0, count)]) or whose
      [count] disagrees with the partial already being assembled; such a
      fragment returns [None] and leaves the partial untouched. *)

  val drop_older_than : t -> before:Dcp_sim.Clock.time -> int
  (** Garbage-collect partial messages whose first fragment arrived before
      [before]; returns how many were dropped.  {!Network} calls it from
      its offers, so a partial that lost a fragment does not pin its
      body for the life of the world. *)
end
