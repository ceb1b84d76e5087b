(* Spans of the traced run.

   A span is one call into a layer, made from the benchmark's own code: a
   name, a start, an end, the span that encloses it, and a request id that
   links the client and server halves of one operation (the RPC request id,
   or the echo round).  Host spans time synchronous calls in host
   nanoseconds.  A coroutine runs without interruption until it blocks, so
   a host span minus its child spans is exact self time.  Virtual spans
   wrap blocking calls ([Rpc.call], [Runtime.receive]) and record simulated
   time only: while a process is blocked, others run on the same host
   thread.

   Records live in preallocated arrays.  Once they are full, later spans
   still add to the per-name totals but are not kept one by one, so the
   totals are exact and memory stays bounded.  [off] records nothing; every
   entry point tests one flag first, which is all an untraced run pays. *)

type clock = Host | Virtual

type kind = int

type totals = { mutable count : int; mutable total : int; mutable self : int }

type t = {
  on : bool;
  mutable kinds : (string * clock * totals) array;
  r_kind : int array;
  r_start : int array;
  r_stop : int array;
  r_parent : int array;
  r_req : int array;
  mutable stored : int;
  (* open host spans: record index (or -1 when not stored), kind, start,
     time covered by children *)
  s_record : int array;
  s_kind : int array;
  s_start : int array;
  s_child : int array;
  mutable depth : int;
}

let max_depth = 64

let make ~on ~capacity =
  {
    on;
    kinds = [||];
    r_kind = Array.make capacity 0;
    r_start = Array.make capacity 0;
    r_stop = Array.make capacity 0;
    r_parent = Array.make capacity 0;
    r_req = Array.make capacity 0;
    stored = 0;
    s_record = Array.make max_depth 0;
    s_kind = Array.make max_depth 0;
    s_start = Array.make max_depth 0;
    s_child = Array.make max_depth 0;
    depth = 0;
  }

let off = make ~on:false ~capacity:0
let create ~capacity = make ~on:true ~capacity
let enabled t = t.on
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let kind t name clock =
  match Array.find_index (fun (name', _, _) -> String.equal name name') t.kinds with
  | Some i -> i
  | None when not t.on -> 0
  | None ->
      t.kinds <- Array.append t.kinds [| (name, clock, { count = 0; total = 0; self = 0 }) |];
      Array.length t.kinds - 1

let store t kind ~start ~stop ~parent ~req =
  let i = t.stored in
  if i < Array.length t.r_kind then begin
    t.r_kind.(i) <- kind;
    t.r_start.(i) <- start;
    t.r_stop.(i) <- stop;
    t.r_parent.(i) <- parent;
    t.r_req.(i) <- req;
    t.stored <- i + 1;
    i
  end
  else -1

let parent t = if t.depth = 0 then -1 else t.s_record.(t.depth - 1)

(* A host span's record is stored when it opens, so that its children can
   name it as their parent; its end is filled in when it closes. *)
let enter t kind ~req =
  if t.on then begin
    let d = t.depth in
    if d = max_depth then failwith "Span.enter: spans nested too deeply";
    let start = now_ns () in
    t.s_record.(d) <- store t kind ~start ~stop:start ~parent:(parent t) ~req;
    t.s_kind.(d) <- kind;
    t.s_start.(d) <- start;
    t.s_child.(d) <- 0;
    t.depth <- d + 1
  end

let leave t =
  if t.on then begin
    let stop = now_ns () in
    let d = t.depth - 1 in
    if d < 0 then failwith "Span.leave: no open span";
    t.depth <- d;
    let duration = stop - t.s_start.(d) in
    let record = t.s_record.(d) in
    if record >= 0 then t.r_stop.(record) <- stop;
    let _, _, totals = t.kinds.(t.s_kind.(d)) in
    totals.count <- totals.count + 1;
    totals.total <- totals.total + duration;
    totals.self <- totals.self + duration - t.s_child.(d);
    if d > 0 then t.s_child.(d - 1) <- t.s_child.(d - 1) + duration
  end

let virtual_span t kind ~req ~start ~stop =
  if t.on then begin
    ignore (store t kind ~start ~stop ~parent:(-1) ~req);
    let _, _, totals = t.kinds.(kind) in
    let duration = stop - start in
    totals.count <- totals.count + 1;
    totals.total <- totals.total + duration;
    totals.self <- totals.self + duration
  end

type summary = { name : string; clock : clock; count : int; total_ns : int; self_ns : int }

let summary t =
  Array.to_list t.kinds
  |> List.map (fun (name, clock, (s : totals)) ->
         { name; clock; count = s.count; total_ns = s.total; self_ns = s.self })

let find t name = List.find_opt (fun s -> String.equal s.name name) (summary t)

(* Mean self time per span of [name], 0. when it never ran. *)
let self_ns_per_call t name =
  match find t name with
  | Some s when s.count > 0 -> float_of_int s.self_ns /. float_of_int s.count
  | Some _ | None -> 0.

let self_ns t name = match find t name with Some s -> s.self_ns | None -> 0
let count t name = match find t name with Some s -> s.count | None -> 0

let write_jsonl t oc =
  for i = 0 to t.stored - 1 do
    let name, clock, _ = t.kinds.(t.r_kind.(i)) in
    Printf.fprintf oc
      "{\"id\":%d,\"name\":\"%s\",\"clock\":\"%s\",\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"req\":%d}\n"
      i name
      (match clock with Host -> "host" | Virtual -> "virtual")
      t.r_start.(i) t.r_stop.(i) t.r_parent.(i) t.r_req.(i)
  done
