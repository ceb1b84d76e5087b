module Runtime = Dcp_core.Runtime
module Clock = Dcp_sim.Clock
module Metrics = Dcp_sim.Metrics
module Topology = Dcp_net.Topology
module Network = Dcp_net.Network
module Link = Dcp_net.Link

type params = {
  regions : int;
  flights_per_region : int;
  capacity : int;
  organization : Types.organization;
  accounting : Types.accounting;
  service_time : Clock.time;
  clerks_per_region : int;
  clerk : Workload.config;
  inter_node : Link.t;
  centralized : bool;
  config : Runtime.config;
  seed : int;
}

let default_params =
  {
    regions = 4;
    flights_per_region = 4;
    capacity = 50;
    organization = Types.Monitor;
    accounting = Types.Idempotent_set;
    service_time = Clock.ms 1;
    clerks_per_region = 2;
    clerk = { Workload.default_config with flights = 16; transactions = 0 };
    inter_node = Link.wan;
    centralized = false;
    config = Runtime.default_config;
    seed = 7;
  }

type t = {
  world : Runtime.world;
  front_desks : Dcp_wire.Port_name.t list;
  regionals : Dcp_wire.Port_name.t list;
  params : params;
}

let flights_of_region p r =
  let total = p.regions * p.flights_per_region in
  List.filter_map
    (fun f -> if f mod p.regions = r then Some { Regional.flight = f; capacity = p.capacity } else None)
    (List.init total Fun.id)

let build p =
  if p.regions <= 0 then invalid_arg "Cluster.build: need at least one region";
  let topology = Topology.full_mesh ~n:p.regions p.inter_node in
  let world = Runtime.create_world ~seed:p.seed ~topology ~config:p.config () in
  Dcp_core.Primordial.install world;
  let region_ids = List.init p.regions Fun.id in
  let regionals =
    List.map
      (fun r ->
        let at = if p.centralized then 0 else r in
        Regional.create world ~at ~flights:(flights_of_region p r)
          ~organization:p.organization ~service_time:p.service_time ~accounting:p.accounting ())
      region_ids
  in
  (* The front desk directory is indexed by flight mod regions, matching
     the flight-to-region assignment above. *)
  let front_desks =
    List.map
      (fun r ->
        Front_desk.create world ~at:r ~regionals ~request_timeout:p.clerk.Workload.request_timeout ())
      region_ids
  in
  (* One clerk definition per region, biased towards that region's
     flights: flight f belongs to region f mod regions, and 80% of a
     clerk's requests concern its own region — the locality the Figure 2
     layout exploits. *)
  List.iteri
    (fun r _ ->
      let total = p.regions * p.flights_per_region in
      let pick rng =
        if Dcp_rng.Rng.bernoulli rng 0.8 then
          r + (p.regions * Dcp_rng.Rng.int rng p.flights_per_region)
        else Dcp_rng.Rng.int rng total
      in
      let config = { p.clerk with Workload.flights = total; flight_picker = Some pick } in
      Workload.install world ~name:(Printf.sprintf "clerk.r%d" r) config)
    region_ids;
  List.iteri
    (fun r front_desk ->
      for _ = 1 to p.clerks_per_region do
        Workload.create_clerk world ~at:r ~name:(Printf.sprintf "clerk.r%d" r) ~front_desk
      done)
    front_desks;
  { world; front_desks; regionals; params = p }

type report = {
  duration : Clock.time;
  requests_ok : int;
  requests_failed : int;
  throughput_per_s : float;
  latency_mean_us : float;
  latency_p50_us : float;
  latency_p95_us : float;
  latency_p99_us : float;
  transactions_completed : int;
  transactions_abandoned : int;
  messages_sent : int;
  totals : Workload.totals;
}

let run t ~duration =
  Runtime.run_for t.world duration;
  let totals = Workload.totals t.world in
  let requests_ok =
    totals.Workload.reserves_ok + totals.reserves_full + totals.reserves_waitlisted
    + totals.reserves_pre_reserved + totals.cancels_deferred
  in
  let latency = Metrics.histogram (Runtime.metrics t.world) "clerk.request.latency_us" in
  let net = Network.stats (Runtime.network t.world) in
  {
    duration;
    requests_ok;
    requests_failed = totals.request_failures;
    throughput_per_s = float_of_int requests_ok /. Clock.to_float_s duration;
    latency_mean_us = Metrics.mean latency;
    latency_p50_us = Metrics.quantile latency 0.5;
    latency_p95_us = Metrics.quantile latency 0.95;
    latency_p99_us = Metrics.quantile latency 0.99;
    transactions_completed = totals.transactions_completed;
    transactions_abandoned = totals.transactions_abandoned;
    messages_sent = net.Network.messages_sent;
    totals;
  }

let pp_report fmt r =
  Format.fprintf fmt
    "@[<v>requests ok/failed: %d/%d@ throughput: %.1f req/s@ latency us mean/p50/p95/p99: \
     %.0f/%.0f/%.0f/%.0f@ transactions done/abandoned: %d/%d@ messages: %d@]"
    r.requests_ok r.requests_failed r.throughput_per_s r.latency_mean_us r.latency_p50_us
    r.latency_p95_us r.latency_p99_us r.transactions_completed r.transactions_abandoned
    r.messages_sent
