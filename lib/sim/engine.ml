type ('a, 'b) kind = { fire : 'a -> 'b -> unit; live : 'a -> bool }

let always _ = true

type event = Event : { time : Clock.time; seq : int; kind : ('a, 'b) kind; a : 'a; b : 'b } -> event

(* The queue is a 4-ary min-heap on (time, seq) over the first [size]
   slots of [queue]: children of [i] at [4i+1 .. 4i+4], parent at
   [(i-1)/4], so half the depth of a binary heap, with a node's children
   adjacent.  Sifts move a hole instead of swapping, one write per level.
   (time, seq) is a total order, so the firing order depends on it alone,
   never on the layout. *)
type t = {
  mutable clock : Clock.time;
  mutable next_seq : int;
  mutable executed : int;
  mutable pending : int;  (** queued events that are neither dead nor fired *)
  mutable at_instant : int;  (** events executed in a row at [clock] *)
  mutable queue : event array;
  mutable size : int;
}

exception Livelock of { at : Clock.time; events : int }

(* The longest run of events at one instant that any committed test,
   example, experiment or benchmark makes is 10,002: [bench/probe.exe]
   starting 10,000 idle guardians at time 0.  The bound is 110 times
   that, so only a loop that never lets virtual time move reaches it. *)
let max_events_per_instant = 1_100_000

let () =
  Printexc.register_printer (function
    | Livelock { at; events } ->
        Some (Format.asprintf "Engine.Livelock: %d events in a row at %a" events Clock.pp at)
    | _ -> None)

(* What [pop] and [purge] leave in the slots they vacate, so the array
   keeps no fired or dropped event alive. *)
let vacant = Event { time = 0; seq = 0; kind = { fire = (fun () () -> ()); live = always }; a = (); b = () }

let create () =
  { clock = Clock.zero; next_seq = 0; executed = 0; pending = 0; at_instant = 0; queue = [||]; size = 0 }

let now t = t.clock
let[@inline] earlier (Event x) (Event y) = x.time < y.time || (x.time = y.time && x.seq < y.seq)
let[@inline] is_live (Event e) = e.kind.live e.a
let[@inline] head_time t = match t.queue.(0) with Event e -> e.time

let rec sift_up q i ev =
  let parent = (i - 1) / 4 in
  if i > 0 && earlier ev q.(parent) then begin
    q.(i) <- q.(parent);
    sift_up q parent ev
  end
  else q.(i) <- ev

(* The hole moves down to the earliest of the (at most four) children. *)
let rec sift_down t i ev =
  let q = t.queue and first = (4 * i) + 1 in
  if first >= t.size then q.(i) <- ev
  else begin
    let best = ref first in
    for j = first + 1 to if first + 3 < t.size then first + 3 else t.size - 1 do
      if earlier q.(j) q.(!best) then best := j
    done;
    if earlier q.(!best) ev then begin
      q.(i) <- q.(!best);
      sift_down t !best ev
    end
    else q.(i) <- ev
  end

(* The queue grows filled with the event being pushed, not with [vacant]:
   past the minor heap's size limit, [Array.make] of a young value runs a
   minor collection first, and a world's set-up measured 5-10% faster
   with those collections than without.  The spare slots hold that one
   event until pushes overwrite them. *)
let push t ev =
  let capacity = Array.length t.queue in
  if t.size = capacity then begin
    let queue = Array.make (if capacity = 0 then 16 else 2 * capacity) ev in
    Array.blit t.queue 0 queue 0 t.size;
    t.queue <- queue
  end;
  t.size <- t.size + 1;
  sift_up t.queue (t.size - 1) ev

(* Callers check [size] first. *)
let pop t =
  let q = t.queue and top = t.queue.(0) in
  t.size <- t.size - 1;
  let last = q.(t.size) in
  q.(t.size) <- vacant;
  if t.size > 0 then sift_down t 0 last;
  top

(* Keep the live events at the front, then restore heap order bottom-up
   (Floyd): O(n). *)
let purge t =
  let q = t.queue and kept = ref 0 in
  for i = 0 to t.size - 1 do
    if is_live q.(i) then begin
      q.(!kept) <- q.(i);
      incr kept
    end
  done;
  Array.fill q !kept (t.size - !kept) vacant;
  t.size <- !kept;
  for i = (!kept - 2) / 4 downto 0 do
    sift_down t i q.(i)
  done

let post t ~at kind a b =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.pending <- t.pending + 1;
  push t (Event { time = (if at < t.clock then t.clock else at); seq; kind; a; b })

let post_after t ~delay kind a b = post t ~at:(t.clock + delay) kind a b
let host = { fire = (fun f () -> f ()); live = always }
let schedule t ~at f = post t ~at host f ()
let schedule_after t ~delay f = post_after t ~delay host f ()

(* A dead event stays queued until it is popped or purged.  Once the dead
   ones outnumber the live ones and pass this floor, [discard] drops them
   all in one O(n) pass: the queue stays within twice [pending] (or the
   floor), at amortised O(1) per dead event. *)
let purge_floor = 1024

let discard t =
  t.pending <- t.pending - 1;
  let dead = t.size - t.pending in
  if dead > purge_floor && dead > t.pending then purge t

(* [pending] is kept exact by [post]/[discard]/[fire], so this is O(1). *)
let pending t = t.pending

(* Run a live event just popped. *)
let fire t (Event e) =
  t.at_instant <- (if e.time = t.clock then t.at_instant + 1 else 1);
  if t.at_instant > max_events_per_instant then
    raise (Livelock { at = e.time; events = t.at_instant });
  t.pending <- t.pending - 1;
  t.clock <- e.time;
  t.executed <- t.executed + 1;
  e.kind.fire e.a e.b

let rec step t =
  t.size > 0
  &&
  let ev = pop t in
  if is_live ev then begin
    fire t ev;
    true
  end
  else step t

let run t = while step t do () done

(* A dead head is dropped here rather than by [step], which would go on
   to fire the next live event wherever it falls. *)
let rec run_until t limit =
  if t.size > 0 && head_time t <= limit then begin
    let ev = pop t in
    if is_live ev then fire t ev;
    run_until t limit
  end
  else if t.clock < limit then begin
    t.clock <- limit;
    t.at_instant <- 0
  end

let run_for t d = run_until t (t.clock + d)
let events_executed t = t.executed

let rec next_time t =
  if t.size = 0 then None
  else if is_live t.queue.(0) then Some (head_time t)
  else begin
    ignore (pop t);
    next_time t
  end
