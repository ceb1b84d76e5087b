(** Link models: the fault and delay behaviour of one directed network path.

    A link samples, per fragment, whether the fragment is lost, duplicated or
    corrupted, and what propagation delay it experiences.  Jittered delays
    naturally yield the unordered delivery of §3.4 ("even two messages sent
    by a single process to the same port are not guaranteed to arrive in the
    same order").  Bandwidth, when finite, adds a serialization delay
    proportional to fragment size. *)

type t = {
  base_latency : Dcp_sim.Clock.time;  (** fixed propagation delay *)
  jitter : Dcp_sim.Clock.time;  (** exponential jitter with this mean; 0 disables *)
  loss : float;  (** per-fragment drop probability *)
  duplicate : float;  (** per-fragment duplication probability *)
  corrupt : float;  (** per-fragment bit-flip probability *)
  bandwidth : int option;  (** bytes/second; [None] = infinite *)
}

val perfect : t
(** Zero-latency, fault-free link (useful in unit tests). *)

val lan : t
(** ~200us latency, small jitter, tiny loss: a 1979-vintage local network. *)

val wan : t
(** ~30ms latency, heavy jitter, 1% loss: a long-haul path. *)

val lossy : float -> t
(** LAN-like link with the given loss probability. *)

(** Outcome of offering one fragment to the link. *)
type verdict =
  | Deliver of Dcp_sim.Clock.time  (** Deliver one copy after the delay. *)
  | Deliver_twice of Dcp_sim.Clock.time * Dcp_sim.Clock.time
      (** Duplicated in flight: deliver a copy after each delay. *)
  | Corrupt_deliver of Dcp_sim.Clock.time
      (** Deliver after the delay, with a bit flipped in flight. *)
  | Drop

val transmit : t -> Dcp_rng.Rng.t -> size:int -> verdict
(** Sample the fate of one [size]-byte fragment.  Each delay covers
    propagation, jitter and the time to clock the fragment onto the
    wire. *)
