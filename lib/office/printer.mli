(** The printer guardian: a guarded *device* (§2.3 — "the resources being
    so guarded may be data, devices or computation").

    The device prints one document at a time at a configured rate; the
    guardian queues jobs, reports queue positions, and answers status
    probes while printing (a Figure-1b-style split: an intake process
    synchronizes, a device process works).

    Port: [print(document, notify) replies (queued(position),
    rejected(string))] — [notify] is an optional port that receives
    [printed(title)] when the job physically completes, long after the
    [queued] reply: the "response comes from a different process [and
    time] than the original recipient" pattern of §3 — and
    [status() replies (status(state, queue_length, pages_printed))]. *)

open Dcp_wire

val create :
  Dcp_core.Runtime.world ->
  at:Dcp_core.Runtime.node_id ->
  ?line_time:Dcp_sim.Clock.time ->
  ?queue_limit:int ->
  unit ->
  Port_name.t
(** [line_time] is the device time per line of the document body
    (default 10 ms); [queue_limit] bounds accepted jobs (default 16). *)
