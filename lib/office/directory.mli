(** The directory guardian: a name service for the office.

    Maps user names to their mailbox delivery ports.  Port names are
    values (§3.2: "the names of ports can also be sent in messages"), so a
    directory is just a guardian guarding a map of them.  Registrations
    are logged; the directory recovers across crashes.

    Port: [register(user, port) replies (registered)],
    [lookup(user) replies (mailbox(port), unknown_user)],
    [users() replies (users(list))]. *)

open Dcp_wire

val create :
  Dcp_core.Runtime.world -> at:Dcp_core.Runtime.node_id -> unit -> Port_name.t

(** {1 Client helpers} *)

val register_user :
  Dcp_core.Runtime.ctx -> directory:Port_name.t -> user:string -> port:Port_name.t -> bool

val lookup :
  Dcp_core.Runtime.ctx -> directory:Port_name.t -> user:string -> Port_name.t option
