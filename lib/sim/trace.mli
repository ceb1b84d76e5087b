(** Structured event tracing.

    A bounded ring of timestamped events with a category and free-form
    description.  Scenarios and tests use traces both for debugging and for
    asserting on the order of distributed happenings (e.g. "the failure
    message arrived after the crash").

    Recording is cheap because text is made only on read.  A deferred
    event ({!record_deferred}) keeps a label and an opaque body, such as
    the encoded message a send already built, and the trace's [render]
    turns them into the detail text when {!events}, {!find} or {!pp} reads
    the event.  The ring starts empty and doubles on demand up to its
    capacity, so a trace that records little costs little. *)

type t

type event = { at : Clock.time; category : string; detail : string }

val create : ?capacity:int -> ?render:(string -> string -> string) -> unit -> t
(** Default capacity is 65536 events; older events are overwritten.
    [render label body] is the detail text of a deferred event; the
    default gives the label and the body's size. *)

val record : t -> at:Clock.time -> category:string -> string -> unit

val recordf :
  t -> at:Clock.time -> category:string -> ('a, Format.formatter, unit, unit) format4 -> 'a

val record_deferred : t -> at:Clock.time -> category:string -> label:string -> string -> unit
(** [record_deferred t ~at ~category ~label body] records an event whose
    detail is [render label body], computed each time the event is read.
    [body] is kept, not copied. *)

val size : t -> int
(** Events currently retained. *)

val total : t -> int
(** Events ever recorded (including overwritten ones). *)

val events : t -> event list
(** Retained events, oldest first. *)

val find : t -> category:string -> event list
(** Retained events of one category, oldest first; only those are
    rendered. *)

val clear : t -> unit

val pp : Format.formatter -> t -> unit
