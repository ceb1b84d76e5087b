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
  queue : timer Heap.t;
}

let compare_timer a b =
  let c = Clock.compare a.time b.time in
  if c <> 0 then c else Int.compare a.seq b.seq

let create () =
  { clock = Clock.zero; next_seq = 0; executed = 0; live = 0; queue = Heap.create ~cmp:compare_timer }

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
  match Heap.pop t.queue with
  | None -> false
  | Some ev ->
      if ev.cancelled then step t
      else begin
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
  match Heap.peek t.queue with
  | Some ev when Clock.compare ev.time limit <= 0 ->
      if ev.cancelled then ignore (Heap.pop t.queue) else ignore (step t);
      run_until t limit
  | Some _ | None -> if Clock.compare t.clock limit < 0 then t.clock <- limit

let run_for t d = run_until t (Clock.add t.clock d)
let events_executed t = t.executed

let next_time t = Option.map (fun ev -> ev.time) (Heap.peek t.queue)
