type event = { at : Clock.time; category : string; detail : string }

(* A deferred entry keeps what the recorder already had — a label and an
   encoded body — and leaves the text to [render], which runs only when
   the trace is read. *)
type entry =
  | Text of event
  | Deferred of { at : Clock.time; category : string; label : string; body : string }

type t = {
  capacity : int;  (** 0 for a counting trace, which keeps nothing *)
  render : string -> string -> string;
  mutable ring : entry array;  (** doubles on demand up to [capacity], then wraps *)
  mutable next : int;
  mutable total : int;
}

let render_size label body = Printf.sprintf "%s: %d bytes" label (String.length body)

let create ?(capacity = 65536) ?(render = render_size) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  { capacity; render; ring = [||]; next = 0; total = 0 }

let counting () = { capacity = 0; render = render_size; ring = [||]; next = 0; total = 0 }

(* Until the first wrap [next = total], so the ring is full exactly when
   [next] reaches its length. *)
let push t e =
  let len = Array.length t.ring in
  if t.next = len && len < t.capacity then begin
    let ring = Array.make (Int.min t.capacity (Int.max 16 (2 * len))) e in
    Array.blit t.ring 0 ring 0 len;
    t.ring <- ring
  end;
  t.ring.(t.next) <- e;
  t.next <- (t.next + 1) mod t.capacity;
  t.total <- t.total + 1

(* Each record site tests [capacity] before it builds an entry, so a
   counting trace allocates nothing and formats nothing. *)
let record t ~at ~category detail =
  if t.capacity = 0 then t.total <- t.total + 1 else push t (Text { at; category; detail })

let recordf t ~at ~category fmt =
  if t.capacity = 0 then begin
    t.total <- t.total + 1;
    Format.ikfprintf ignore Format.err_formatter fmt
  end
  else Format.kasprintf (record t ~at ~category) fmt

let record_deferred t ~at ~category ~label body =
  if t.capacity = 0 then t.total <- t.total + 1
  else push t (Deferred { at; category; label; body })

let size t = Int.min t.total t.capacity
let total t = t.total

let category_of = function Text e -> e.category | Deferred d -> d.category

let event_of t = function
  | Text e -> e
  | Deferred { at; category; label; body } -> { at; category; detail = t.render label body }

(* Retained entries matching [keep], oldest first, rendered. *)
let collect t keep =
  let n = size t in
  let start = if t.total <= t.capacity then 0 else t.next in
  let rec gather i acc =
    if i < 0 then acc
    else
      let e = t.ring.((start + i) mod t.capacity) in
      gather (i - 1) (if keep e then event_of t e :: acc else acc)
  in
  gather (n - 1) []

let events t = collect t (fun _ -> true)
let find t ~category = collect t (fun e -> String.equal (category_of e) category)

let clear t =
  t.ring <- [||];
  t.next <- 0;
  t.total <- 0

let pp fmt t =
  let pp_event e = Format.fprintf fmt "[%a] %-16s %s@." Clock.pp e.at e.category e.detail in
  List.iter pp_event (events t)
