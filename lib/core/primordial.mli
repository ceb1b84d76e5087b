(** The primordial guardian (§2.1).

    "Each node comes into existence with a primordial guardian, which can
    (among other things) create guardians at its node in response to
    messages arriving from guardians at other nodes.  This restriction on
    creation of new guardians helps preserve the autonomy of the physical
    nodes."

    The primordial guardian accepts:
    {v
    create_guardian (def_name: string, args: list[any])
      replies (created (list[port]), create_failed (string))
    ping () replies (pong ())
    v}

    The definition must already be in the receiving world's library
    ({!Runtime.register_def}) — the node's owner decides which programs may
    run there, and an unknown definition is refused with [create_failed]. *)

open Dcp_wire

val install : Runtime.world -> unit
(** Register the primordial definition (if not yet registered) and create
    one primordial guardian on every node that doesn't have one. *)

val port_of : Runtime.world -> Runtime.node_id -> Port_name.t
(** The primordial port at a node. @raise Not_found if none. *)

(** {1 Client-side helper} *)

val request_create :
  Runtime.ctx ->
  at:Runtime.node_id ->
  def_name:string ->
  args:Value.t list ->
  timeout:Dcp_sim.Clock.time ->
  [ `Created of Port_name.t list | `Refused of string | `Timeout ]
(** Ask the primordial guardian at [at] to create a guardian there, blocking
    (with timeout) for the outcome — the in-model way to create a guardian
    on a *remote* node. *)
