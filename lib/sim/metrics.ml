type counter = { mutable c : int }
type gauge = { mutable g : float }

(* Buckets are powers of [growth]; bucket i covers [growth^i, growth^(i+1)).
   An extra slot 0 holds non-positive samples. *)
type histogram = {
  growth : float;
  log_growth : float;
  mutable buckets : int array;
  mutable n : int;
  mutable sum : float;
  mutable minimum : float;
  mutable maximum : float;
}

(* Each instrument family is a Hashtbl (O(1) get-or-create, so hot paths
   may look instruments up by name without a registry scan) plus a
   newest-first name list that preserves creation order for reports. *)
type registry = {
  counter_tbl : (string, counter) Hashtbl.t;
  mutable counter_order : string list;
  gauge_tbl : (string, gauge) Hashtbl.t;
  mutable gauge_order : string list;
  hist_tbl : (string, histogram) Hashtbl.t;
  mutable hist_order : string list;
}

let registry () =
  {
    counter_tbl = Hashtbl.create 64;
    counter_order = [];
    gauge_tbl = Hashtbl.create 16;
    gauge_order = [];
    hist_tbl = Hashtbl.create 16;
    hist_order = [];
  }

let get_or_add tbl name make note =
  match Hashtbl.find_opt tbl name with
  | Some v -> v
  | None ->
      let v = make () in
      Hashtbl.replace tbl name v;
      note name;
      v

let counter r name =
  get_or_add r.counter_tbl name (fun () -> { c = 0 }) (fun n -> r.counter_order <- n :: r.counter_order)

let incr c = c.c <- c.c + 1
let add c n = c.c <- c.c + n
let count c = c.c

let gauge r name =
  get_or_add r.gauge_tbl name (fun () -> { g = 0.0 }) (fun n -> r.gauge_order <- n :: r.gauge_order)
let set_gauge g x = g.g <- x
let gauge_value g = g.g

let make_histogram () =
  let growth = 1.05 in
  {
    growth;
    log_growth = log growth;
    buckets = Array.make 1 0;
    n = 0;
    sum = 0.0;
    minimum = infinity;
    maximum = neg_infinity;
  }

let histogram r name =
  get_or_add r.hist_tbl name make_histogram (fun n -> r.hist_order <- n :: r.hist_order)

let bucket_index h x = if x <= 1.0 then 0 else 1 + int_of_float (log x /. h.log_growth)

let observe h x =
  let i = bucket_index h x in
  if i >= Array.length h.buckets then begin
    let buckets = Array.make (i + 16) 0 in
    Array.blit h.buckets 0 buckets 0 (Array.length h.buckets);
    h.buckets <- buckets
  end;
  h.buckets.(i) <- h.buckets.(i) + 1;
  h.n <- h.n + 1;
  h.sum <- h.sum +. x;
  if x < h.minimum then h.minimum <- x;
  if x > h.maximum then h.maximum <- x

let samples h = h.n
let mean h = if h.n = 0 then 0.0 else h.sum /. float_of_int h.n
let hist_min h = if h.n = 0 then 0.0 else h.minimum
let hist_max h = if h.n = 0 then 0.0 else h.maximum

let bucket_midpoint h i =
  if i = 0 then 1.0
  else
    let lo = Float.pow h.growth (float_of_int (i - 1)) in
    lo *. (1.0 +. h.growth) /. 2.0

let quantile h q =
  if h.n = 0 then 0.0
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let target = int_of_float (Float.round (q *. float_of_int (h.n - 1))) in
    let rec walk i acc =
      if i >= Array.length h.buckets then hist_max h
      else
        let acc = acc + h.buckets.(i) in
        if acc > target then
          (* Clamp the midpoint estimate into the observed range. *)
          Float.max (hist_min h) (Float.min (hist_max h) (bucket_midpoint h i))
        else walk (i + 1) acc
    in
    walk 0 0
  end

let counters r = List.rev_map (fun name -> (name, (Hashtbl.find r.counter_tbl name).c)) r.counter_order
let gauges r = List.rev_map (fun name -> (name, (Hashtbl.find r.gauge_tbl name).g)) r.gauge_order
let histograms r = List.rev_map (fun name -> (name, Hashtbl.find r.hist_tbl name)) r.hist_order

(* Merge shard registries into one snapshot: counters sum, gauges take the
   maximum (the only multi-shard gauges are high-water marks), histograms
   add bucket-wise.  Instruments keep first-seen order across the input
   registries, so a merged report is stable for a fixed shard layout. *)
let merge rs =
  let out = registry () in
  List.iter
    (fun r ->
      List.iter (fun (name, v) -> add (counter out name) v) (counters r);
      List.iter
        (fun (name, v) ->
          let g = gauge out name in
          if v > g.g then g.g <- v)
        (gauges r);
      List.iter
        (fun (name, h) ->
          let m = histogram out name in
          let blen = Array.length h.buckets in
          if blen > Array.length m.buckets then begin
            let buckets = Array.make blen 0 in
            Array.blit m.buckets 0 buckets 0 (Array.length m.buckets);
            m.buckets <- buckets
          end;
          Array.iteri (fun i c -> m.buckets.(i) <- m.buckets.(i) + c) h.buckets;
          m.n <- m.n + h.n;
          m.sum <- m.sum +. h.sum;
          if h.minimum < m.minimum then m.minimum <- h.minimum;
          if h.maximum > m.maximum then m.maximum <- h.maximum)
        (histograms r))
    rs;
  out

let pp_report fmt r =
  List.iter (fun (name, v) -> Format.fprintf fmt "counter %-40s %d@." name v) (counters r);
  List.iter (fun (name, v) -> Format.fprintf fmt "gauge   %-40s %.3f@." name v) (gauges r);
  let pp_hist (name, h) =
    Format.fprintf fmt "hist    %-40s n=%d mean=%.2f p50=%.2f p95=%.2f p99=%.2f max=%.2f@." name
      (samples h) (mean h) (quantile h 0.5) (quantile h 0.95) (quantile h 0.99) (hist_max h)
  in
  List.iter pp_hist (histograms r)
