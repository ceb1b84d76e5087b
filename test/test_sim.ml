(* The simulation substrate: clock, engine and its event heap, metrics,
   trace. *)

module Clock = Dcp_sim.Clock
module Engine = Dcp_sim.Engine
module Metrics = Dcp_sim.Metrics
module Trace = Dcp_sim.Trace

(* A cancellable timeout as the engine sees one: a guarded event whose
   [armed] flag is its liveness.  [cancel] kills it and tells the engine,
   as a served receive does for its timeout. *)
type timeout = { mutable armed : bool; on_fire : unit -> unit }

let timeout_event =
  {
    Engine.fire =
      (fun tm () ->
        tm.armed <- false;
        tm.on_fire ());
    live = (fun tm -> tm.armed);
  }

let arm e ~at on_fire =
  let tm = { armed = true; on_fire } in
  Engine.post e ~at timeout_event tm ();
  tm

let cancel e tm =
  if tm.armed then begin
    tm.armed <- false;
    Engine.discard e
  end

(* ---- The engine's event heap ---- *)

(* Host events at [times], each logging its time and index; returns the
   log, newest first. *)
let schedule_all e times =
  let log = ref [] in
  List.iteri (fun i at -> Engine.schedule e ~at (fun () -> log := (at, i) :: !log)) times;
  log

let rec drain e = if Engine.step e then drain e

let test_heap_basics () =
  let e = Engine.create () in
  Alcotest.(check bool) "empty engine: step is false" false (Engine.step e);
  Alcotest.(check (option int)) "empty: no next time" None (Engine.next_time e);
  let log = schedule_all e [ 5; 1; 3 ] in
  Alcotest.(check int) "pending" 3 (Engine.pending e);
  Alcotest.(check (option int)) "next time is the earliest" (Some 1) (Engine.next_time e);
  Alcotest.(check bool) "step fires" true (Engine.step e);
  Alcotest.(check (list (pair int int))) "earliest first" [ (1, 1) ] !log;
  Alcotest.(check int) "clock at it" 1 (Engine.now e);
  drain e;
  Alcotest.(check (list (pair int int))) "then the rest in order" [ (1, 1); (3, 2); (5, 0) ]
    (List.rev !log);
  Alcotest.(check bool) "drained engine: step is false" false (Engine.step e);
  Alcotest.(check int) "nothing pending" 0 (Engine.pending e);
  Alcotest.(check int) "three executed" 3 (Engine.events_executed e)

(* Ties fire in scheduling order: the heap orders by (time, seq). *)
let sorted_by_time_then_seq times =
  List.stable_sort (fun (t1, _) (t2, _) -> Int.compare t1 t2) (List.mapi (fun i t -> (t, i)) times)

let test_heap_sorts () =
  let times = [ 9; 2; 7; 2; 0; 3; 100; 55 ] in
  let e = Engine.create () in
  let log = schedule_all e times in
  Engine.run e;
  Alcotest.(check (list (pair int int))) "fires sorted, ties in order" (sorted_by_time_then_seq times)
    (List.rev !log)

(* After any interleaving of schedules and steps, every step fires the
   least (time, seq) queued, as a sorted-list model says. *)
let prop_heap_invariant =
  QCheck2.Test.make ~name:"heap invariant after pushes and pops" ~count:300
    QCheck2.Gen.(list (pair bool (int_range 0 1000)))
    (fun ops ->
      let e = Engine.create () in
      let log = ref [] and seq = ref 0 in
      let step model (push, d) =
        match model with
        | None -> None
        | Some model -> (
            if push then begin
              let key = (Engine.now e + d, !seq) in
              incr seq;
              Engine.schedule_after e ~delay:d (fun () -> log := key :: !log);
              Some (List.merge compare [ key ] model)
            end
            else
              match model with
              | [] -> if Engine.step e then None else Some []
              | m :: rest ->
                  if Engine.step e && List.hd !log = m && Engine.now e = fst m then Some rest
                  else None)
      in
      match List.fold_left step (Some []) ops with
      | Some model ->
          log := [];
          Engine.run e;
          List.rev !log = model
      | None -> false)

let prop_heap_sorted_drain =
  QCheck2.Test.make ~name:"heap drains in sorted order" ~count:300
    QCheck2.Gen.(list (int_range 0 1_000_000))
    (fun times ->
      let e = Engine.create () in
      let log = schedule_all e times in
      Engine.run e;
      List.rev !log = sorted_by_time_then_seq times)

(* ---- Clock ---- *)

let test_clock_units () =
  Alcotest.(check int) "us" 1_000 (Clock.us 1);
  Alcotest.(check int) "ms" 1_000_000 (Clock.ms 1);
  Alcotest.(check int) "s" 1_000_000_000 (Clock.s 1);
  Alcotest.(check int) "of_float_s" 1_500_000_000 (Clock.of_float_s 1.5);
  Alcotest.(check (float 1e-9)) "to_float_ms" 1.5 (Clock.to_float_ms (Clock.us 1500))

let test_clock_pp () =
  let render t = Format.asprintf "%a" Clock.pp t in
  Alcotest.(check string) "ns" "500ns" (render 500);
  Alcotest.(check string) "us" "1.500us" (render 1500);
  Alcotest.(check string) "ms" "2.000ms" (render (Clock.ms 2));
  Alcotest.(check string) "s" "3.000s" (render (Clock.s 3))

(* ---- Engine ---- *)

let test_engine_order () =
  let e = Engine.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  Engine.schedule e ~at:(Clock.ms 5) (note "b");
  Engine.schedule e ~at:(Clock.ms 1) (note "a");
  Engine.schedule e ~at:(Clock.ms 9) (note "c");
  Engine.run e;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check int) "clock at last event" (Clock.ms 9) (Engine.now e)

let test_engine_fifo_ties () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Engine.schedule e ~at:(Clock.ms 1) (fun () -> log := i :: !log)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "ties run in scheduling order" [ 1; 2; 3; 4; 5 ] (List.rev !log)

(* A dead event never fires, never counts and never moves the clock. *)
let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let tm = arm e ~at:(Clock.ms 1) (fun () -> fired := true) in
  cancel e tm;
  Engine.run e;
  Alcotest.(check bool) "cancelled timeout silent" false !fired;
  Alcotest.(check int) "not executed" 0 (Engine.events_executed e);
  Alcotest.(check int) "clock unmoved" 0 (Engine.now e);
  Alcotest.(check int) "nothing pending" 0 (Engine.pending e)

let test_engine_schedule_in_past_clamped () =
  let e = Engine.create () in
  let when_fired = ref (-1) in
  Engine.schedule e ~at:(Clock.ms 10) (fun () ->
      Engine.schedule e ~at:(Clock.ms 1) (fun () -> when_fired := Engine.now e));
  Engine.run e;
  Alcotest.(check int) "clamped to now" (Clock.ms 10) !when_fired

let test_engine_run_until () =
  let e = Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    Engine.schedule e ~at:(Clock.ms i) (fun () -> incr count)
  done;
  Engine.run_until e (Clock.ms 5);
  Alcotest.(check int) "only first five" 5 !count;
  Alcotest.(check int) "clock at limit" (Clock.ms 5) (Engine.now e);
  Engine.run e;
  Alcotest.(check int) "rest run later" 10 !count

(* A dead event within the limit must not let [run_until] fire the live
   event queued behind it, past the limit.  [next_time] drops dead heads,
   so it is read on a second engine set up the same way. *)
let test_engine_run_until_cancelled_head () =
  let setup () =
    let e = Engine.create () in
    let fired = ref [] in
    let head = arm e ~at:(Clock.ms 1) (fun () -> fired := 1 :: !fired) in
    Engine.schedule e ~at:(Clock.ms 10) (fun () -> fired := 10 :: !fired);
    cancel e head;
    (e, fired)
  in
  let e, fired = setup () in
  Engine.run_until e (Clock.ms 5);
  Alcotest.(check (list int)) "nothing fires" [] !fired;
  Alcotest.(check int) "nothing executed" 0 (Engine.events_executed e);
  Alcotest.(check int) "clock at limit" (Clock.ms 5) (Engine.now e);
  Alcotest.(check int) "live event still pending" 1 (Engine.pending e);
  Engine.run e;
  Alcotest.(check (list int)) "it fires later" [ 10 ] !fired;
  Alcotest.(check int) "one executed" 1 (Engine.events_executed e);
  let e, fired = setup () in
  Alcotest.(check (option int)) "next time skips the dead head" (Some (Clock.ms 10))
    (Engine.next_time e);
  Alcotest.(check int) "clock unmoved by next time" 0 (Engine.now e);
  Alcotest.(check int) "nothing executed by next time" 0 (Engine.events_executed e);
  Alcotest.(check (list int)) "nothing fired" [] !fired

let test_engine_cascading () =
  (* Events scheduling events: a chain of N hops lands at t = N. *)
  let e = Engine.create () in
  let hops = ref 0 in
  let rec hop () =
    incr hops;
    if !hops < 100 then Engine.schedule_after e ~delay:(Clock.us 1) hop
  in
  Engine.schedule_after e ~delay:(Clock.us 1) hop;
  Engine.run e;
  Alcotest.(check int) "all hops" 100 !hops;
  Alcotest.(check int) "time advanced linearly" (Clock.us 100) (Engine.now e);
  Alcotest.(check int) "events counted" 100 (Engine.events_executed e)

let test_engine_pending () =
  let e = Engine.create () in
  let t1 = arm e ~at:(Clock.ms 1) ignore in
  Engine.schedule e ~at:(Clock.ms 2) ignore;
  Alcotest.(check int) "two pending" 2 (Engine.pending e);
  cancel e t1;
  Alcotest.(check int) "one after cancel" 1 (Engine.pending e)

(* The engine against a reference queue that deletes a timeout the moment
   it is cancelled.  Host events and cancellable timeouts interleave;
   bursts and mass cancels push the dead events past the purge floor; a
   [Run_to_cancelled] limit lands exactly on a dead event.  After every
   operation the fired sequence, [events_executed], [pending] and [now]
   must match the reference.  [next_time] drops the dead events at the
   head of the queue, so it is compared only at a [Peek] and at the end:
   a [Step] or a [Run_until] that no [Peek] precedes meets dead heads. *)
type engine_op =
  | Host of int
  | Arm of int
  | Burst of int * int
  | Cancel of int
  | Cancel_every of int
  | Step
  | Run_until of int
  | Run_to_cancelled of int
  | Peek

let gen_engine_ops =
  QCheck2.Gen.(
    list_size (int_range 0 200)
      (frequency
         [
           (3, map (fun d -> Host d) (int_range 0 50));
           (3, map (fun d -> Arm d) (int_range 0 50));
           (2, map2 (fun n d -> Burst (n, d)) (int_range 1 400) (int_range 1 40));
           (3, map (fun i -> Cancel i) nat);
           (1, map (fun m -> Cancel_every m) (int_range 1 3));
           (3, pure Step);
           (2, map (fun d -> Run_until d) (int_range 0 30));
           (2, map (fun i -> Run_to_cancelled i) nat);
           (1, pure Peek);
         ]))

module Ref_queue = Set.Make (struct
  type t = Clock.time * int

  let compare (t1, s1) (t2, s2) =
    let c = Int.compare t1 t2 in
    if c <> 0 then c else Int.compare s1 s2
end)

let prop_engine_purge_matches_reference =
  QCheck2.Test.make ~name:"engine with purged cancels fires like a reference queue" ~count:150
    gen_engine_ops (fun ops ->
      let e = Engine.create () in
      let fired = ref [] in
      (* the timeouts armed so far, by id; ids count up like seq *)
      let timeouts = Hashtbl.create 64 and n = ref 0 in
      (* the reference: live and cancelled (time, seq) pairs, a clock, an
         execution count, a firing log *)
      let live = ref Ref_queue.empty and dead = ref Ref_queue.empty in
      let clock = ref 0 and executed = ref 0 and ref_fired = ref [] in
      let add key = live := Ref_queue.add key !live in
      let host d =
        let id = !n in
        Engine.schedule_after e ~delay:d (fun () -> fired := id :: !fired);
        add (!clock + d, id);
        incr n
      in
      let arm_timeout d =
        let id = !n in
        let tm = arm e ~at:(!clock + d) (fun () -> fired := id :: !fired) in
        Hashtbl.replace timeouts id (tm, (!clock + d, id));
        add (!clock + d, id);
        incr n
      in
      let cancel_id id =
        match Hashtbl.find_opt timeouts id with
        | None -> ()
        | Some (tm, key) ->
            cancel e tm;
            if Ref_queue.mem key !live then begin
              live := Ref_queue.remove key !live;
              dead := Ref_queue.add key !dead
            end
      in
      let ref_step () =
        match Ref_queue.min_elt_opt !live with
        | None -> false
        | Some ((at, id) as k) ->
            live := Ref_queue.remove k !live;
            clock := at;
            incr executed;
            ref_fired := id :: !ref_fired;
            true
      in
      let run_until limit =
        Engine.run_until e limit;
        let rec ref_run () =
          match Ref_queue.min_elt_opt !live with
          | Some (at, _) when at <= limit ->
              ignore (ref_step ());
              ref_run ()
          | Some _ | None -> if !clock < limit then clock := limit
        in
        ref_run ()
      in
      let next_time_agrees () = Engine.next_time e = Option.map fst (Ref_queue.min_elt_opt !live) in
      let apply = function
        | Host d -> host d
        | Arm d -> arm_timeout d
        | Burst (k, d) ->
            for i = 1 to k do
              arm_timeout ((i * 7) mod d)
            done
        | Cancel i -> if !n > 0 then cancel_id (i mod !n)
        | Cancel_every m ->
            for id = 0 to !n - 1 do
              if id mod m = 0 then cancel_id id
            done
        | Step -> ignore (Engine.step e, ref_step ())
        | Run_until d -> run_until (!clock + d)
        | Run_to_cancelled i -> (
            match List.filter (fun (at, _) -> at >= !clock) (Ref_queue.elements !dead) with
            | [] -> ()
            | ahead -> run_until (fst (List.nth ahead (i mod List.length ahead))))
        | Peek -> ()
      in
      let agrees () =
        !fired = !ref_fired
        && Engine.events_executed e = !executed
        && Engine.pending e = Ref_queue.cardinal !live
        && Engine.now e = !clock
      in
      List.for_all
        (fun op ->
          apply op;
          agrees () && (op <> Peek || next_time_agrees ()))
        ops
      && next_time_agrees ()
      &&
      (Engine.run e;
       while ref_step () do () done;
       agrees () && next_time_agrees ()))

(* A loop that arms a timeout and cancels it (a receive that is answered
   before its timeout) must not grow the queue. *)
let test_engine_cancel_cycles_bounded () =
  let e = Engine.create () in
  let order = ref [] in
  for i = 1 to 10 do
    Engine.schedule e ~at:(Clock.s (20 - i)) (fun () -> order := i :: !order)
  done;
  for _ = 1 to 100_000 do
    cancel e (arm e ~at:(Engine.now e + Clock.s 1) (fun () -> Alcotest.fail "cancelled timeout fired"))
  done;
  Alcotest.(check int) "pending counts live events" 10 (Engine.pending e);
  (* unpurged, 100k timeouts and their payloads take over a million words *)
  let words = Obj.reachable_words (Obj.repr e) in
  if words > 50_000 then Alcotest.failf "queue holds %d words after 100k cancels" words;
  Engine.run e;
  Alcotest.(check (list int)) "live events fire in time order" [ 10; 9; 8; 7; 6; 5; 4; 3; 2; 1 ]
    (List.rev !order)

(* The purge filters the heap: once the dead outnumber the live past the
   floor they are dropped at once, and the survivors still fire in
   order. *)
let test_heap_filter () =
  let e = Engine.create () in
  let fired = ref [] in
  let timeouts =
    List.init 3000 (fun i ->
        let at = (i * 37) mod 3000 in
        arm e ~at (fun () -> fired := at :: !fired))
  in
  List.iteri (fun i tm -> if i mod 3 <> 0 then cancel e tm) timeouts;
  Alcotest.(check int) "a third live" 1000 (Engine.pending e);
  (* all 3,000 events and their timeouts hold over 40,000 words *)
  let words = Obj.reachable_words (Obj.repr e) in
  if words > 30_000 then Alcotest.failf "dead events not purged: %d words" words;
  Engine.run e;
  let survivors = List.filteri (fun i _ -> i mod 3 = 0) (List.init 3000 (fun i -> (i * 37) mod 3000)) in
  Alcotest.(check (list int)) "survivors in order" (List.sort Int.compare survivors) (List.rev !fired);
  List.iter (cancel e) (List.init 2000 (fun i -> arm e ~at:(Clock.s 1 + i) ignore));
  Alcotest.(check int) "emptied" 0 (Engine.pending e);
  Alcotest.(check (option int)) "nothing next" None (Engine.next_time e);
  Alcotest.(check bool) "step is false" false (Engine.step e)

(* ---- Metrics ---- *)

let test_metrics_counters () =
  let r = Metrics.registry () in
  let c = Metrics.counter r "hits" in
  Metrics.incr c;
  Metrics.incr c;
  Metrics.add c 3;
  Alcotest.(check int) "count" 5 (Metrics.count c);
  Alcotest.(check int) "same name, same counter" 5 (Metrics.count (Metrics.counter r "hits"));
  Alcotest.(check (list (pair string int))) "report" [ ("hits", 5) ] (Metrics.counters r)

let test_metrics_gauges () =
  let r = Metrics.registry () in
  let g = Metrics.gauge r "depth" in
  Metrics.set_gauge g 2.5;
  Alcotest.(check (float 1e-9)) "gauge" 2.5 (Metrics.gauge_value g)

let test_metrics_histogram_quantiles () =
  let r = Metrics.registry () in
  let h = Metrics.histogram r "lat" in
  for i = 1 to 1000 do
    Metrics.observe h (float_of_int i)
  done;
  Alcotest.(check int) "samples" 1000 (Metrics.samples h);
  Alcotest.(check (float 1.0)) "mean" 500.5 (Metrics.mean h);
  let p50 = Metrics.quantile h 0.5 in
  Alcotest.(check bool) "p50 within 10%" true (Float.abs (p50 -. 500.0) < 50.0);
  let p99 = Metrics.quantile h 0.99 in
  Alcotest.(check bool) "p99 within 10%" true (Float.abs (p99 -. 990.0) < 99.0);
  Alcotest.(check (float 1e-9)) "max exact" 1000.0 (Metrics.hist_max h);
  Alcotest.(check (float 1e-9)) "min exact" 1.0 (Metrics.hist_min h)

let test_metrics_histogram_empty () =
  let r = Metrics.registry () in
  let h = Metrics.histogram r "empty" in
  Alcotest.(check (float 1e-9)) "mean 0" 0.0 (Metrics.mean h);
  Alcotest.(check (float 1e-9)) "quantile 0" 0.0 (Metrics.quantile h 0.5)

let prop_histogram_quantile_monotone =
  QCheck2.Test.make ~name:"histogram quantiles are monotone" ~count:100
    QCheck2.Gen.(list_size (int_range 1 200) (float_range 0.1 1e6))
    (fun samples ->
      let r = Metrics.registry () in
      let h = Metrics.histogram r "x" in
      List.iter (Metrics.observe h) samples;
      let q1 = Metrics.quantile h 0.25
      and q2 = Metrics.quantile h 0.5
      and q3 = Metrics.quantile h 0.95 in
      q1 <= q2 && q2 <= q3)

(* ---- Trace ---- *)

let test_trace_records () =
  let t = Trace.create ~capacity:8 () in
  Trace.record t ~at:1 ~category:"send" "hello";
  Trace.recordf t ~at:2 ~category:"recv" "%d of %d" 1 2;
  Alcotest.(check int) "size" 2 (Trace.size t);
  match Trace.events t with
  | [ e1; e2 ] ->
      Alcotest.(check string) "first" "hello" e1.Trace.detail;
      Alcotest.(check string) "formatted" "1 of 2" e2.Trace.detail
  | _ -> Alcotest.fail "expected two events"

let test_trace_ring_overflow () =
  let t = Trace.create ~capacity:4 () in
  for i = 1 to 10 do
    Trace.record t ~at:i ~category:"x" (string_of_int i)
  done;
  Alcotest.(check int) "retains capacity" 4 (Trace.size t);
  Alcotest.(check int) "total counts all" 10 (Trace.total t);
  Alcotest.(check (list string)) "keeps newest"
    [ "7"; "8"; "9"; "10" ]
    (List.map (fun e -> e.Trace.detail) (Trace.events t))

let test_trace_find () =
  let t = Trace.create () in
  Trace.record t ~at:1 ~category:"a" "1";
  Trace.record t ~at:2 ~category:"b" "2";
  Trace.record t ~at:3 ~category:"a" "3";
  Alcotest.(check int) "category filter" 2 (List.length (Trace.find t ~category:"a"))

let details t = List.map (fun e -> e.Trace.detail) (Trace.events t)
let numbers lo hi = List.init (hi - lo + 1) (fun i -> string_of_int (lo + i))

(* The ring starts small and doubles; growing must keep every event in
   order, up to the capacity. *)
let test_trace_ring_growth () =
  let t = Trace.create ~capacity:1000 () in
  for i = 1 to 300 do
    Trace.record t ~at:i ~category:"x" (string_of_int i)
  done;
  Alcotest.(check int) "size" 300 (Trace.size t);
  Alcotest.(check int) "total" 300 (Trace.total t);
  Alcotest.(check (list string)) "all kept, oldest first" (numbers 1 300) (details t)

(* Grown to exactly its capacity, the ring wraps and drops the oldest. *)
let test_trace_ring_wrap_at_capacity () =
  let t = Trace.create ~capacity:64 () in
  for i = 1 to 64 do
    Trace.record t ~at:i ~category:"x" (string_of_int i)
  done;
  Alcotest.(check (list string)) "full, nothing dropped" (numbers 1 64) (details t);
  for i = 65 to 200 do
    Trace.record t ~at:i ~category:"x" (string_of_int i)
  done;
  Alcotest.(check int) "size stays at capacity" 64 (Trace.size t);
  Alcotest.(check int) "total counts all" 200 (Trace.total t);
  Alcotest.(check (list string)) "newest kept in order" (numbers 137 200) (details t);
  Trace.clear t;
  Trace.record t ~at:1 ~category:"x" "again";
  Alcotest.(check (list string)) "regrows after clear" [ "again" ] (details t)

(* A deferred event is rendered on read, and [find] renders only the
   category it returns. *)
let test_trace_deferred_render () =
  let rendered = ref 0 in
  let render label body =
    incr rendered;
    label ^ " sent " ^ String.uppercase_ascii body
  in
  let t = Trace.create ~capacity:8 ~render () in
  Trace.record_deferred t ~at:1 ~category:"send" ~label:"a#1" "ping";
  Trace.record t ~at:2 ~category:"note" "eager";
  Trace.record_deferred t ~at:3 ~category:"send" ~label:"b#2" "pong";
  Alcotest.(check int) "nothing rendered while recording" 0 !rendered;
  Alcotest.(check (list string)) "notes" [ "eager" ]
    (List.map (fun e -> e.Trace.detail) (Trace.find t ~category:"note"));
  Alcotest.(check int) "find renders only its category" 0 !rendered;
  Alcotest.(check (list string)) "rendered in order" [ "a#1 sent PING"; "eager"; "b#2 sent PONG" ]
    (details t);
  Alcotest.(check int) "each deferred event rendered once per read" 2 !rendered;
  Alcotest.(check (list string)) "default render"
    [ "x#0: 3 bytes" ]
    (let t = Trace.create () in
     Trace.record_deferred t ~at:0 ~category:"send" ~label:"x#0" "abc";
     details t)

let tests =
  [
    Alcotest.test_case "heap basics" `Quick test_heap_basics;
    Alcotest.test_case "heap sorts" `Quick test_heap_sorts;
    QCheck_alcotest.to_alcotest prop_heap_invariant;
    QCheck_alcotest.to_alcotest prop_heap_sorted_drain;
    Alcotest.test_case "clock units" `Quick test_clock_units;
    Alcotest.test_case "clock pp" `Quick test_clock_pp;
    Alcotest.test_case "engine time order" `Quick test_engine_order;
    Alcotest.test_case "engine FIFO ties" `Quick test_engine_fifo_ties;
    Alcotest.test_case "engine cancel" `Quick test_engine_cancel;
    Alcotest.test_case "engine past clamped" `Quick test_engine_schedule_in_past_clamped;
    Alcotest.test_case "engine run_until" `Quick test_engine_run_until;
    Alcotest.test_case "engine run_until skips a cancelled head" `Quick
      test_engine_run_until_cancelled_head;
    Alcotest.test_case "engine cascading events" `Quick test_engine_cascading;
    Alcotest.test_case "engine pending" `Quick test_engine_pending;
    QCheck_alcotest.to_alcotest prop_engine_purge_matches_reference;
    Alcotest.test_case "engine cancel cycles bounded" `Quick test_engine_cancel_cycles_bounded;
    Alcotest.test_case "heap filter" `Quick test_heap_filter;
    Alcotest.test_case "metrics counters" `Quick test_metrics_counters;
    Alcotest.test_case "metrics gauges" `Quick test_metrics_gauges;
    Alcotest.test_case "histogram quantiles" `Quick test_metrics_histogram_quantiles;
    Alcotest.test_case "histogram empty" `Quick test_metrics_histogram_empty;
    QCheck_alcotest.to_alcotest prop_histogram_quantile_monotone;
    Alcotest.test_case "trace records" `Quick test_trace_records;
    Alcotest.test_case "trace ring overflow" `Quick test_trace_ring_overflow;
    Alcotest.test_case "trace find" `Quick test_trace_find;
    Alcotest.test_case "trace ring growth" `Quick test_trace_ring_growth;
    Alcotest.test_case "trace ring wrap at capacity" `Quick test_trace_ring_wrap_at_capacity;
    Alcotest.test_case "trace deferred render" `Quick test_trace_deferred_render;
  ]
