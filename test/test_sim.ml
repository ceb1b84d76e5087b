(* The simulation substrate: heap, clock, engine, metrics, trace. *)

module Heap = Dcp_sim.Heap
module Clock = Dcp_sim.Clock
module Engine = Dcp_sim.Engine
module Metrics = Dcp_sim.Metrics
module Trace = Dcp_sim.Trace

(* ---- Heap ---- *)

let test_heap_basics () =
  let h = Heap.create ~cmp:Int.compare in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Heap.push h 5;
  Heap.push h 1;
  Heap.push h 3;
  Alcotest.(check int) "length" 3 (Heap.length h);
  Alcotest.(check (option int)) "peek min" (Some 1) (Heap.peek h);
  Alcotest.(check (option int)) "pop min" (Some 1) (Heap.pop h);
  Alcotest.(check (option int)) "pop next" (Some 3) (Heap.pop h);
  Alcotest.(check (option int)) "pop last" (Some 5) (Heap.pop h);
  Alcotest.(check (option int)) "pop empty" None (Heap.pop h)

let test_heap_pop_exn_empty () =
  let h = Heap.create ~cmp:Int.compare in
  Alcotest.check_raises "pop_exn on empty" (Invalid_argument "Heap.pop_exn: empty heap")
    (fun () -> ignore (Heap.pop_exn h))

let test_heap_sorts () =
  let h = Heap.of_list ~cmp:Int.compare [ 9; 2; 7; 2; 0; -3; 100; 55 ] in
  let rec drain acc = match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc) in
  Alcotest.(check (list int)) "drains sorted" [ -3; 0; 2; 2; 7; 9; 55; 100 ] (drain [])

let prop_heap_invariant =
  QCheck2.Test.make ~name:"heap invariant after pushes and pops" ~count:300
    QCheck2.Gen.(list (pair bool int))
    (fun ops ->
      let h = Heap.create ~cmp:Int.compare in
      List.iter
        (fun (push, v) -> if push then Heap.push h v else ignore (Heap.pop h))
        ops;
      Heap.check_invariant h)

let prop_heap_sorted_drain =
  QCheck2.Test.make ~name:"heap drains in sorted order" ~count:300
    QCheck2.Gen.(list int)
    (fun xs ->
      let h = Heap.of_list ~cmp:Int.compare xs in
      let rec drain acc = match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc) in
      drain [] = List.sort Int.compare xs)

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
  ignore (Engine.schedule e ~at:(Clock.ms 5) (note "b"));
  ignore (Engine.schedule e ~at:(Clock.ms 1) (note "a"));
  ignore (Engine.schedule e ~at:(Clock.ms 9) (note "c"));
  Engine.run e;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check int) "clock at last event" (Clock.ms 9) (Engine.now e)

let test_engine_fifo_ties () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule e ~at:(Clock.ms 1) (fun () -> log := i :: !log))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "ties run in scheduling order" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let t = Engine.schedule e ~at:(Clock.ms 1) (fun () -> fired := true) in
  Engine.cancel t;
  Engine.run e;
  Alcotest.(check bool) "cancelled timer silent" false !fired;
  Alcotest.(check bool) "marked cancelled" true (Engine.is_cancelled t)

let test_engine_schedule_in_past_clamped () =
  let e = Engine.create () in
  let when_fired = ref (-1) in
  ignore
    (Engine.schedule e ~at:(Clock.ms 10) (fun () ->
         ignore (Engine.schedule e ~at:(Clock.ms 1) (fun () -> when_fired := Engine.now e))));
  Engine.run e;
  Alcotest.(check int) "clamped to now" (Clock.ms 10) !when_fired

let test_engine_run_until () =
  let e = Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Engine.schedule e ~at:(Clock.ms i) (fun () -> incr count))
  done;
  Engine.run_until e (Clock.ms 5);
  Alcotest.(check int) "only first five" 5 !count;
  Alcotest.(check int) "clock at limit" (Clock.ms 5) (Engine.now e);
  Engine.run e;
  Alcotest.(check int) "rest run later" 10 !count

(* A cancelled timer within the limit must not let [run_until] fire the
   live timer queued behind it, past the limit. *)
let test_engine_run_until_cancelled_head () =
  let e = Engine.create () in
  let fired = ref [] in
  let head = Engine.schedule e ~at:(Clock.ms 1) (fun () -> fired := 1 :: !fired) in
  ignore (Engine.schedule e ~at:(Clock.ms 10) (fun () -> fired := 10 :: !fired));
  Engine.cancel head;
  Engine.run_until e (Clock.ms 5);
  Alcotest.(check (list int)) "nothing fires" [] !fired;
  Alcotest.(check int) "clock at limit" (Clock.ms 5) (Engine.now e);
  Alcotest.(check int) "live timer still pending" 1 (Engine.pending e);
  Engine.run e;
  Alcotest.(check (list int)) "it fires later" [ 10 ] !fired

let test_engine_cascading () =
  (* Events scheduling events: a chain of N hops lands at t = N. *)
  let e = Engine.create () in
  let hops = ref 0 in
  let rec hop () =
    incr hops;
    if !hops < 100 then ignore (Engine.schedule_after e ~delay:(Clock.us 1) hop)
  in
  ignore (Engine.schedule_after e ~delay:(Clock.us 1) hop);
  Engine.run e;
  Alcotest.(check int) "all hops" 100 !hops;
  Alcotest.(check int) "time advanced linearly" (Clock.us 100) (Engine.now e);
  Alcotest.(check int) "events counted" 100 (Engine.events_executed e)

let test_engine_pending () =
  let e = Engine.create () in
  let t1 = Engine.schedule e ~at:(Clock.ms 1) (fun () -> ()) in
  ignore (Engine.schedule e ~at:(Clock.ms 2) (fun () -> ()));
  Alcotest.(check int) "two pending" 2 (Engine.pending e);
  Engine.cancel t1;
  Alcotest.(check int) "one after cancel" 1 (Engine.pending e)

(* Cancelled timers are purged from the queue in bulk; the firing sequence
   must match a reference that simply deletes a timer when it is
   cancelled.  Bursts and mass cancels push the queue past the purge
   floor; [Run_until] checks that nothing past the limit fires, whether or
   not a cancelled timer heads the queue. *)
type engine_op =
  | Schedule of int
  | Burst of int * int
  | Cancel of int
  | Cancel_every of int
  | Step
  | Run_until of int

let gen_engine_ops =
  QCheck2.Gen.(
    list_size (int_range 0 200)
      (frequency
         [
           (4, map (fun d -> Schedule d) (int_range 0 50));
           (2, map2 (fun n d -> Burst (n, d)) (int_range 1 150) (int_range 1 40));
           (3, map (fun i -> Cancel i) nat);
           (1, map (fun m -> Cancel_every m) (int_range 1 3));
           (3, pure Step);
           (2, map (fun d -> Run_until d) (int_range 0 30));
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
      (* id -> (engine timer, reference key); ids count up like seq *)
      let handles = Hashtbl.create 64 and n = ref 0 in
      (* the reference: live (time, seq) pairs, a clock, a firing log *)
      let live = ref Ref_queue.empty and clock = ref 0 and ref_fired = ref [] in
      let schedule d =
        let id = !n in
        let timer = Engine.schedule_after e ~delay:d (fun () -> fired := id :: !fired) in
        let key = (!clock + d, id) in
        Hashtbl.replace handles id (timer, key);
        live := Ref_queue.add key !live;
        incr n
      in
      let cancel id =
        let timer, key = Hashtbl.find handles id in
        Engine.cancel timer;
        live := Ref_queue.remove key !live
      in
      let ref_step () =
        match Ref_queue.min_elt_opt !live with
        | None -> false
        | Some ((at, id) as k) ->
            live := Ref_queue.remove k !live;
            clock := at;
            ref_fired := id :: !ref_fired;
            true
      in
      let apply = function
        | Schedule d -> schedule d
        | Burst (k, d) ->
            for i = 1 to k do
              schedule ((i * 7) mod d)
            done
        | Cancel i -> if !n > 0 then cancel (i mod !n)
        | Cancel_every m ->
            for id = 0 to !n - 1 do
              if id mod m = 0 then cancel id
            done
        | Step -> ignore (Engine.step e, ref_step ())
        | Run_until d ->
            let limit = !clock + d in
            Engine.run_until e limit;
            let rec ref_run () =
              match Ref_queue.min_elt_opt !live with
              | Some (at, _) when at <= limit ->
                  ignore (ref_step ());
                  ref_run ()
              | Some _ | None -> clock := limit
            in
            ref_run ()
      in
      List.for_all
        (fun op ->
          apply op;
          Engine.pending e = Ref_queue.cardinal !live && Engine.now e = !clock && !fired = !ref_fired)
        ops
      &&
      (Engine.run e;
       while ref_step () do () done;
       !fired = !ref_fired))

(* A loop that arms a timer and cancels it (a receive that is answered
   before its timeout) must not grow the queue. *)
let test_engine_cancel_cycles_bounded () =
  let e = Engine.create () in
  let order = ref [] in
  for i = 1 to 10 do
    ignore (Engine.schedule e ~at:(Clock.s (20 - i)) (fun () -> order := i :: !order))
  done;
  for _ = 1 to 100_000 do
    Engine.cancel (Engine.schedule_after e ~delay:(Clock.s 1) (fun () -> Alcotest.fail "cancelled timer fired"))
  done;
  Alcotest.(check int) "pending counts live timers" 10 (Engine.pending e);
  (* unpurged, 100k timers and their closures take over a million words *)
  let words = Obj.reachable_words (Obj.repr e) in
  if words > 50_000 then Alcotest.failf "queue holds %d words after 100k cancels" words;
  Engine.run e;
  Alcotest.(check (list int)) "live timers fire in time order" [ 10; 9; 8; 7; 6; 5; 4; 3; 2; 1 ]
    (List.rev !order)

let test_heap_filter () =
  let h = Heap.of_list ~cmp:Int.compare (List.init 100 (fun i -> (i * 37) mod 100)) in
  Heap.filter h (fun x -> x mod 3 <> 0);
  Alcotest.(check bool) "invariant" true (Heap.check_invariant h);
  let rec drain acc = match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc) in
  Alcotest.(check (list int)) "survivors in order"
    (List.filter (fun x -> x mod 3 <> 0) (List.init 100 Fun.id))
    (drain []);
  Heap.push h 5;
  Heap.filter h (fun _ -> false);
  Alcotest.(check bool) "emptied" true (Heap.is_empty h)

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
    Alcotest.test_case "heap pop_exn empty" `Quick test_heap_pop_exn_empty;
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
