(** Heartbeat failure detection.

    §3.5's failure handling is timeout-driven: "a failure of the regional
    node will cause the timeout arm of the receive statement to be
    selected ... If the time out occurs, nothing is known about the true
    state of affairs."  This module packages that machinery as a reusable
    *failure detector*: a watcher process pings a peer port periodically
    and reports transitions on a notification port —

    {v
    peer_down(misses)   after [misses] consecutive unanswered pings
    peer_up()           when a previously-down peer answers again
    v}

    Like every timeout-based detector it is only *suspicion*: a down
    verdict can be wrong (slow network), and the paper's uncertainty
    discussion applies in full.  The detector exercises the primordial
    guardian's [ping] when watching a node, or any port that answers the
    RPC convention. *)

open Dcp_wire
module Clock = Dcp_sim.Clock

type watcher

val stop : watcher -> unit
(** The watcher process ends at its next tick. *)

val is_suspected : watcher -> bool
(** Current verdict. *)

val watch_node :
  Dcp_core.Runtime.ctx ->
  node:Dcp_core.Runtime.node_id ->
  notify:Port_name.t ->
  ?period:Clock.time ->
  ?ping_timeout:Clock.time ->
  ?misses:int ->
  unit ->
  watcher
(** Spawn a watcher process in this guardian for a whole node, through its
    primordial guardian's [ping] (RPC convention).  Every [period] (default
    500 ms) it pings and waits up to [ping_timeout] (default 200 ms).
    After [misses] consecutive silent pings (default 3) it sends
    [peer_down(misses)] to [notify]; on the first answer afterwards it
    sends [peer_up()]. *)
