type timer = {
  time : Clock.time;
  seq : int;
  action : unit -> unit;
  mutable cancelled : bool;
  mutable fired : bool;
  owner : t;
}

and t = {
  mutable clock : Clock.time;
  mutable next_seq : int;
  mutable executed : int;
  mutable live : int;  (** scheduled, not yet fired or cancelled *)
  mutable at_instant : int;  (** events executed in a row at [clock] *)
  queue : timer Heap.t;
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

let compare_timer a b =
  let c = Clock.compare a.time b.time in
  if c <> 0 then c else Int.compare a.seq b.seq

let create () =
  {
    clock = Clock.zero;
    next_seq = 0;
    executed = 0;
    live = 0;
    at_instant = 0;
    queue = Heap.create ~cmp:compare_timer;
  }

let now t = t.clock

let schedule t ~at action =
  let at = if Clock.compare at t.clock < 0 then t.clock else at in
  let timer = { time = at; seq = t.next_seq; action; cancelled = false; fired = false; owner = t } in
  t.next_seq <- t.next_seq + 1;
  t.live <- t.live + 1;
  Heap.push t.queue timer;
  timer

let schedule_after t ~delay action = schedule t ~at:(Clock.add t.clock delay) action

(* A cancelled timer stays queued until it is popped or purged.  Once the
   cancelled ones outnumber the live ones and pass this floor, [cancel]
   drops them all in one O(n) pass: the queue stays within twice
   [pending] (or the floor), at amortised O(1) per cancel.  Pop order
   cannot change, because (time, seq) is a total order. *)
let purge_floor = 1024

let cancel timer =
  if not (timer.cancelled || timer.fired) then begin
    let t = timer.owner in
    timer.cancelled <- true;
    t.live <- t.live - 1;
    (* fired timers have left the queue, so the rest of it is cancelled *)
    let dead = Heap.length t.queue - t.live in
    if dead > purge_floor && dead > t.live then Heap.filter t.queue (fun ev -> not ev.cancelled)
  end

let is_cancelled timer = timer.cancelled

(* [live] is kept exact by [schedule]/[cancel]/[step], so this is O(1);
   cancelled timers may still occupy the heap but are not counted. *)
let pending t = t.live

let rec step t =
  if Heap.length t.queue = 0 then false
  else
    let ev = Heap.pop t.queue in
    if ev.cancelled then step t
    else begin
      t.at_instant <- (if Clock.compare ev.time t.clock = 0 then t.at_instant + 1 else 1);
      if t.at_instant > max_events_per_instant then
        raise (Livelock { at = ev.time; events = t.at_instant });
      ev.fired <- true;
      t.live <- t.live - 1;
      t.clock <- ev.time;
      t.executed <- t.executed + 1;
      ev.action ();
      true
    end

let run t = while step t do () done

(* A cancelled timer at the head is dropped here rather than by [step],
   which would go on to fire the next live timer wherever it falls. *)
let rec run_until t limit =
  if Heap.length t.queue > 0 && Clock.compare (Heap.peek t.queue).time limit <= 0 then begin
    if (Heap.peek t.queue).cancelled then ignore (Heap.pop t.queue) else ignore (step t);
    run_until t limit
  end
  else if Clock.compare t.clock limit < 0 then begin
    t.clock <- limit;
    t.at_instant <- 0
  end

let run_for t d = run_until t (Clock.add t.clock d)
let events_executed t = t.executed

let next_time t = if Heap.length t.queue = 0 then None else Some (Heap.peek t.queue).time
