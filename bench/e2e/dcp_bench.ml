(* End-to-end benchmark of the simulator, driven through the public API.

     dcp_bench.exe --workload NAME [--seed N] [--seconds N] [--trace 0|1] [--trace-dir DIR]
     dcp_bench.exe [--seed N] [--seconds N] [--trace 0|1] [--trace-dir DIR]
     dcp_bench.exe --smoke

   With --workload, one workload runs in this process: one untimed warm-up
   repetition, then timed repetitions until --seconds have passed (at least
   [min_reps]).  Each repetition builds its world from the seed — the timed
   set-up — and runs it to completion — the timed run.  A host-time metric
   is the best repetition's, because on a shared host interference only
   ever slows a repetition down; the median, min and max are printed beside
   it.  Every other metric is an exact function of the seed, and every
   repetition must give the same sim digest.

   With --trace 1, repetitions alternate between untraced and traced.
   End-to-end numbers still come from the untraced ones; per-layer numbers
   come from the fastest traced one, and --trace-dir writes its spans as
   DIR/spans.jsonl and DIR/layers.json.  The last line of standard output
   is one JSON object: correct, attempted, failed, and the metrics
   BENCHMARK.json lists (end-to-end with --trace 0, per-layer with
   --trace 1).

   Without --workload, each workload runs in its own child process, one
   after another, so that peak heap belongs to one workload alone.
   --smoke runs every workload at a small size twice, untraced then traced,
   and checks correctness and that both give the same sim digest. *)

let workloads =
  [ Echo_local.workload; Kv_rpc_wan.workload; Gossip_replica.workload; Chaos_sweep.workload ]

let min_reps = 3

(* Set-up takes milliseconds, so beyond the one in each repetition it is
   repeated on its own this many times. *)
let setup_samples = 20
let span_capacity = 100_000

(* What the result line carries; BENCHMARK.json lists the same names. *)
let json_end_to_end = [ "setup_s"; "ops_per_s"; "msgs_per_s"; "peak_heap_mb"; "msgs_per_op" ]

let json_per_layer =
  [
    "sim.events_per_op";
    "sim.run_ns_per_event";
    "net.msgs_per_op";
    "gc.minor_words_per_op";
    "gc.promoted_words_per_op";
    "gc.major_collections";
    "trace.slowdown";
  ]

(* ---- one repetition ---- *)

type sample = {
  setup_s : float;
  run_s : float;
  rep : Workload.rep;
  digest : string;
  tracer : Span.t;
  minor_words : float;
  promoted_words : float;
  major_collections : int;
}

let digest (r : Workload.rep) =
  let b = Buffer.create 4096 in
  Printf.bprintf b "ops=%d failed=%d violations=%d msgs=%d events=%d" r.ops r.failed
    (List.length r.violations) r.msgs r.events;
  Option.iter (Printf.bprintf b " bytes=%d") r.bytes;
  Option.iter (Printf.bprintf b " converge=%d") r.converge;
  Array.iter (Printf.bprintf b " %d") r.latencies;
  List.iter (fun (name, v) -> Printf.bprintf b " %s=%.17g" name v) r.layers;
  Digest.to_hex (Digest.string (Buffer.contents b))

let repetition (w : Workload.t) ~seed ~smoke tracer =
  Gc.full_major ();
  let t0 = Span.now_ns () in
  let run = w.setup ~seed ~smoke tracer in
  let g0 = Gc.quick_stat () in
  let t1 = Span.now_ns () in
  let rep = run () in
  let t2 = Span.now_ns () in
  let g1 = Gc.quick_stat () in
  {
    setup_s = float_of_int (t1 - t0) /. 1e9;
    run_s = float_of_int (t2 - t1) /. 1e9;
    rep;
    digest = digest rep;
    tracer;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
  }

let fastest = function
  | [] -> invalid_arg "fastest"
  | s :: rest -> List.fold_left (fun best s -> if s.run_s < best.run_s then s else best) s rest

(* ---- statistics ---- *)

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile of virtual ns, in ms. *)
let percentile_ms sorted q =
  let rank = int_of_float (Float.ceil (q *. float_of_int (Array.length sorted))) in
  float_of_int sorted.(Int.max 0 (rank - 1)) /. 1e6

(* ---- output ---- *)

let unit_of name =
  let ends suffix = String.ends_with ~suffix name in
  if ends "_ns" || ends "_ns_per_msg" || ends "_ns_per_event" then "ns"
  else if ends ".s_per_run" then "s"
  else if ends "_words_per_op" then "words"
  else if ends "_ratio" || ends "_share" || ends ".slowdown" then "ratio"
  else if ends "bytes_per_msg" || ends "bytes_per_key" then "bytes"
  else "count"

let json_string s = "\"" ^ String.escaped s ^ "\""

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else failwith (Printf.sprintf "non-finite metric value %f" v)

let json_metrics metrics =
  "{"
  ^ String.concat ","
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (json_string name) (json_number v)
             (json_string unit))
         metrics)
  ^ "}"

let pick names metrics =
  List.map
    (fun name ->
      match List.find_opt (fun (n, _, _) -> String.equal n name) metrics with
      | Some (_, unit, Some v) -> (name, unit, v)
      | Some (_, _, None) | None -> failwith ("metric " ^ name ^ " was not measured"))
    names

let show = function None -> "n/a" | Some v -> Printf.sprintf "%.6g" v

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write_trace dir (w : Workload.t) ~seed tracer metrics =
  mkdir_p dir;
  Out_channel.with_open_text (Filename.concat dir "spans.jsonl") (Span.write_jsonl tracer);
  let span (s : Span.summary) =
    Printf.sprintf "{\"name\":%s,\"clock\":%s,\"count\":%d,\"total_ns\":%d,\"self_ns\":%d}"
      (json_string s.name)
      (json_string (match s.clock with Span.Host -> "host" | Span.Virtual -> "virtual"))
      s.count s.total_ns s.self_ns
  in
  Out_channel.with_open_text (Filename.concat dir "layers.json") (fun oc ->
      Printf.fprintf oc
        "{\"schema\":\"dcp.bench.e2e.layers/v1\",\"workload\":%s,\"seed\":%d,\"spans\":[%s],\"metrics\":%s}\n"
        (json_string w.name) seed
        (String.concat "," (List.map span (Span.summary tracer)))
        (json_metrics metrics));
  Printf.printf "trace %s: wrote %s and %s\n" w.name (Filename.concat dir "spans.jsonl")
    (Filename.concat dir "layers.json")

(* ---- per-layer metrics of a traced repetition ---- *)

let layer_metrics (w : Workload.t) ~untraced ~traced =
  let rep = traced.rep and tracer = traced.tracer in
  let ops = float_of_int rep.ops in
  let per_op x = x /. ops in
  let run_ns = untraced.run_s *. 1e9 and traced_run_ns = traced.run_s *. 1e9 in
  let spans =
    List.filter_map
      (fun (s : Span.summary) ->
        match s.clock with
        | Span.Virtual -> None
        | Span.Host when String.equal s.name "sim.run" -> None
        | Span.Host when String.starts_with ~prefix:"check." s.name ->
            Some (s.name ^ ".s_per_run", float_of_int s.total_ns /. float_of_int s.count /. 1e9)
        | Span.Host -> Some (s.name ^ "_ns", Span.self_ns_per_call tracer s.name))
      (Span.summary tracer)
  in
  (* Everything [Runtime.run] did outside the benchmark's own synchronous
     spans: engine, network, decode, port and process resume. *)
  let deliver_side =
    if Span.count tracer "sim.run" = 0 then None
    else Some (float_of_int (Span.self_ns tracer "sim.run") /. float_of_int rep.msgs)
  in
  let metrics =
    [
      ("sim.events_per_op", per_op (float_of_int rep.events));
      ("sim.run_ns_per_event", run_ns /. float_of_int rep.events);
      ("gc.minor_words_per_op", per_op untraced.minor_words);
      ("gc.promoted_words_per_op", per_op untraced.promoted_words);
      ("gc.major_collections", float_of_int untraced.major_collections);
      ("trace.slowdown", traced_run_ns /. run_ns);
    ]
    @ rep.layers @ spans
    @ Option.fold ~none:[] ~some:(fun ns -> [ ("sim.deliver_side_ns_per_msg", ns) ]) deliver_side
    @ if rep.envelopes = [] then [] else Replay.metrics rep.envelopes
  in
  let metrics = List.map (fun (name, v) -> (name, unit_of name, v)) metrics in
  List.iter
    (fun (name, unit, v) -> Printf.printf "layer %s %s %.6g %s\n" w.name name v unit)
    metrics;
  Printf.printf "tracing overhead %s: traced run %.6g ns/op, untraced %.6g ns/op (%+.1f%%)\n" w.name
    (per_op traced_run_ns) (per_op run_ns)
    (100. *. ((traced_run_ns /. run_ns) -. 1.));
  (* Where sends are the only synchronous spans, the sends and the
     deliver-side residual must add up to the untraced run. *)
  let only_sends =
    List.for_all
      (fun (s : Span.summary) ->
        s.clock = Span.Virtual || List.mem s.name [ "sim.run"; "core.send" ])
      (Span.summary tracer)
  in
  (match (Span.find tracer "core.send", deliver_side) with
  | Some send, Some deliver_ns when only_sends ->
      let send_ns = Span.self_ns_per_call tracer "core.send" in
      let sends_per_op = float_of_int send.count /. ops in
      let msgs_per_op = float_of_int rep.msgs /. ops in
      let predicted = (send_ns *. sends_per_op) +. (deliver_ns *. msgs_per_op) in
      Printf.printf
        "accounting %s: core.send %.1f ns x %.2f sends/op + deliver side %.1f ns x %.2f msgs/op = %.1f ns/op; untraced run %.1f ns/op (%+.1f%%)\n"
        w.name send_ns sends_per_op deliver_ns msgs_per_op predicted (per_op run_ns)
        (100. *. ((predicted /. per_op run_ns) -. 1.))
  | _ -> ());
  metrics

(* ---- one workload in this process ---- *)

let measure (w : Workload.t) ~seed ~seconds ~trace ~trace_dir =
  let warm = repetition w ~seed ~smoke:false Span.off in
  (* Read before the timed repetitions, whose number depends on host
     speed: their garbage would make the peak depend on it too. *)
  let peak_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  let untraced = ref [] and traced = ref [] in
  let started = Span.now_ns () in
  let elapsed () = float_of_int (Span.now_ns () - started) /. 1e9 in
  while
    elapsed () < float_of_int seconds
    || List.length !untraced < min_reps
    || (trace && List.length !traced < min_reps)
  do
    if trace && List.length !traced < List.length !untraced then
      traced := repetition w ~seed ~smoke:false (Span.create ~capacity:span_capacity) :: !traced
    else untraced := repetition w ~seed ~smoke:false Span.off :: !untraced
  done;
  let untraced = List.rev !untraced and traced = List.rev !traced in
  let setups =
    List.map (fun s -> s.setup_s) untraced
    @ List.init setup_samples (fun _ ->
          let t0 = Span.now_ns () in
          let (_ : unit -> Workload.rep) = w.setup ~seed ~smoke:false Span.off in
          float_of_int (Span.now_ns () - t0) /. 1e9)
  in
  let all = (warm :: untraced) @ traced in
  let rep = warm.rep in
  let violations =
    List.concat_map (fun s -> s.rep.Workload.violations) all
    @
    if List.for_all (fun s -> String.equal s.digest warm.digest) all then []
    else [ "repetitions of one seed gave different sim digests" ]
  in
  let timed = untraced @ traced in
  let attempted = List.fold_left (fun acc s -> acc + s.rep.Workload.ops) 0 timed in
  let failed = List.fold_left (fun acc s -> acc + s.rep.Workload.failed) 0 timed in
  let correct = violations = [] && failed = 0 in
  let ops = float_of_int rep.ops in
  Printf.printf "workload %s seed %d: %d timed repetitions (%d traced) of %d ops, %.1f s\n" w.name
    seed (List.length timed) (List.length traced) rep.ops (elapsed ());
  let host name unit ~better xs =
    let lo = List.fold_left Float.min infinity xs and hi = List.fold_left Float.max neg_infinity xs in
    let best = match better with `Lower -> lo | `Higher -> hi in
    Printf.printf "%s %s %.6g %s (best of %d; median %.6g, min %.6g, max %.6g)\n" w.name name best
      unit (List.length xs) (median xs) lo hi;
    (name, unit, Some best)
  in
  let exact ?(note = "") name unit v =
    Printf.printf "%s %s %s %s (exact%s)\n" w.name name (show v) unit note;
    (name, unit, v)
  in
  let per_op n = Some (float_of_int n /. ops) in
  let sorted = Array.copy rep.latencies in
  Array.sort Int.compare sorted;
  let latency q = if Array.length sorted = 0 then None else Some (percentile_ms sorted q) in
  let note = Printf.sprintf "; %d samples" (Array.length sorted) in
  let runs f = List.map f untraced in
  (* thunks, so that the lines print in this order *)
  let end_to_end =
    List.map
      (fun metric -> metric ())
      [
        (fun () -> host "setup_s" "s" ~better:`Lower setups);
        (fun () -> host "ops_per_s" "ops/s" ~better:`Higher (runs (fun s -> ops /. s.run_s)));
        (fun () ->
          host "msgs_per_s" "msgs/s" ~better:`Higher (runs (fun s -> float_of_int rep.msgs /. s.run_s)));
        (fun () ->
          Printf.printf "%s peak_heap_mb %.6g MB (Gc top_heap_words after the warm-up)\n" w.name
            peak_heap_mb;
          ("peak_heap_mb", "MB", Some peak_heap_mb));
        (fun () -> exact ~note "op_latency_p50_virtual_ms" "ms" (latency 0.5));
        (fun () -> exact ~note "op_latency_p99_virtual_ms" "ms" (latency 0.99));
        (fun () -> exact "msgs_per_op" "msgs" (per_op rep.msgs));
        (fun () -> exact "bytes_per_op" "bytes" (Option.bind rep.bytes per_op));
        (fun () -> exact "ops_failed_ratio" "failed/attempted" (per_op rep.failed));
        (fun () ->
          exact "converge_virtual_s" "s" (Option.map (fun t -> float_of_int t /. 1e9) rep.converge));
      ]
  in
  Printf.printf "sim_digest %s %s\n" w.name warm.digest;
  List.iter (Printf.printf "violation %s: %s\n" w.name) violations;
  let chosen =
    if trace then begin
      let traced = fastest traced in
      let metrics = layer_metrics w ~untraced:(fastest untraced) ~traced in
      Option.iter (fun dir -> write_trace dir w ~seed traced.tracer metrics) trace_dir;
      pick json_per_layer (List.map (fun (n, u, v) -> (n, u, Some v)) metrics)
    end
    else pick json_end_to_end end_to_end
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":%s}\n%!" correct
    attempted failed (json_metrics chosen);
  if correct then 0 else 1

(* ---- smoke ---- *)

let smoke () =
  let ok =
    List.for_all
      (fun (w : Workload.t) ->
        let plain = repetition w ~seed:1 ~smoke:true Span.off in
        let traced = repetition w ~seed:1 ~smoke:true (Span.create ~capacity:1000) in
        let problems =
          plain.rep.violations @ traced.rep.violations
          @ (if plain.rep.failed + traced.rep.failed = 0 then [] else [ "ops failed" ])
          @
          if String.equal plain.digest traced.digest then []
          else [ Printf.sprintf "sim digest %s untraced, %s traced" plain.digest traced.digest ]
        in
        Printf.printf "smoke %s: %d ops, sim_digest %s, %s\n%!" w.name plain.rep.ops plain.digest
          (if problems = [] then "ok" else "FAILED: " ^ String.concat "; " problems);
        problems = [])
      workloads
  in
  if ok then 0 else 1

(* ---- every workload, each in a child process ---- *)

let run_children ~seed ~seconds ~trace ~trace_dir =
  List.fold_left
    (fun status (w : Workload.t) ->
      let args =
        [ Sys.executable_name; "--workload"; w.name; "--seed"; string_of_int seed; "--seconds";
          string_of_int seconds; "--trace"; (if trace then "1" else "0") ]
        @ Option.fold ~none:[] ~some:(fun dir -> [ "--trace-dir"; Filename.concat dir w.name ]) trace_dir
      in
      let pid =
        Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin Unix.stdout Unix.stderr
      in
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> status
      | _, (Unix.WEXITED _ | Unix.WSIGNALED _ | Unix.WSTOPPED _) ->
          Printf.printf "workload %s failed\n%!" w.name;
          1)
    0 workloads

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 15 and trace = ref 0 in
  let trace_dir = ref None and smoke_only = ref false in
  let names = String.concat ", " (List.map (fun (w : Workload.t) -> w.name) workloads) in
  let specs =
    [
      ("--workload", Arg.String (fun s -> workload := Some s), "NAME  run one workload: " ^ names);
      ("--seed", Arg.Set_int seed, "N  seed every input is drawn from (default 1)");
      ("--seconds", Arg.Set_int seconds, "N  measure for N seconds (default 15)");
      ("--trace", Arg.Set_int trace, "0|1  1: also run traced and report per-layer metrics");
      ( "--trace-dir",
        Arg.String (fun d -> trace_dir := Some d),
        "DIR  with --trace 1, write spans.jsonl and layers.json here" );
      ("--smoke", Arg.Set smoke_only, " run every workload small; check correctness and digests");
    ]
  in
  let usage =
    "dcp_bench.exe [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] [--trace-dir DIR] [--smoke]"
  in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    Arg.usage specs usage;
    exit 2
  end;
  let trace = !trace = 1 in
  let status =
    if !smoke_only then smoke ()
    else
      match !workload with
      | None -> run_children ~seed:!seed ~seconds:!seconds ~trace ~trace_dir:!trace_dir
      | Some name -> (
          match List.find_opt (fun (w : Workload.t) -> String.equal w.name name) workloads with
          | Some w -> measure w ~seed:!seed ~seconds:!seconds ~trace ~trace_dir:!trace_dir
          | None ->
              prerr_endline ("unknown workload " ^ name ^ "; one of " ^ names);
              2)
  in
  exit status
