module Clock = Dcp_sim.Clock
module Rng = Dcp_rng.Rng

type t = {
  base_latency : Clock.time;
  jitter : Clock.time;
  loss : float;
  duplicate : float;
  corrupt : float;
  bandwidth : int option;
}

let perfect =
  { base_latency = 0; jitter = 0; loss = 0.0; duplicate = 0.0; corrupt = 0.0; bandwidth = None }

let lan =
  {
    base_latency = Clock.us 200;
    jitter = Clock.us 50;
    loss = 0.0001;
    duplicate = 0.0;
    corrupt = 0.00001;
    bandwidth = Some 10_000_000;
  }

let wan =
  {
    base_latency = Clock.ms 30;
    jitter = Clock.ms 10;
    loss = 0.01;
    duplicate = 0.001;
    corrupt = 0.0001;
    bandwidth = Some 1_000_000;
  }

let lossy loss = { lan with loss }

type verdict =
  | Deliver of Clock.time
  | Deliver_twice of Clock.time * Clock.time
  | Corrupt_deliver of Clock.time
  | Drop

let serialization_time t ~size =
  match t.bandwidth with
  | None -> 0
  | Some bytes_per_s -> Clock.of_float_s (float_of_int size /. float_of_int bytes_per_s)

let sample_delay t rng ~size =
  let jitter =
    if t.jitter = 0 then 0
    else Clock.of_float_s (Rng.exponential rng ~mean:(Clock.to_float_s t.jitter))
  in
  Clock.add t.base_latency (Clock.add jitter (serialization_time t ~size))

let transmit t rng ~size =
  if Rng.bernoulli rng t.loss then Drop
  else if Rng.bernoulli rng t.corrupt then Corrupt_deliver (sample_delay t rng ~size)
  else begin
    let first = sample_delay t rng ~size in
    if Rng.bernoulli rng t.duplicate then Deliver_twice (first, sample_delay t rng ~size)
    else Deliver first
  end
