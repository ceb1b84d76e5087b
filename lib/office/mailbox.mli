(** The mailbox guardian: guards one user's mail.

    Two ports separate the two capabilities, in the style the paper's port
    mechanism makes natural:

    - the {b delivery port} (port 0) is published in the {!Directory}; any
      guardian may deliver a document to it:
      [deliver(document) replies (delivered, mailbox_full)];
    - the {b owner port} (port 1) is handed only to the mailbox's owner:
      [list_mail() replies (headers(list))], [fetch(n) replies
      (mail(document), no_such_mail)], [discard(n) replies (discarded,
      no_such_mail)].

    Mail is logged to the guardian's stable store on delivery and the
    guardian recovers after a crash — memos survive node failures
    (§2.2's permanence, for office data). *)

open Dcp_wire

val create :
  Dcp_core.Runtime.world ->
  at:Dcp_core.Runtime.node_id ->
  owner:string ->
  ?capacity:int ->
  unit ->
  Port_name.t * Port_name.t
(** [(delivery_port, owner_port)].  [capacity] bounds stored mail
    (default 100); deliveries beyond it answer [mailbox_full]. *)
