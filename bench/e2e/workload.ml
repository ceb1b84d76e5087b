(* What one repetition of a workload reports, and helpers shared by the
   workloads that build their own worlds.

   A workload's [setup] builds and bootstraps its world from the seed (the
   timed set-up) and returns the closure that drives it to completion (the
   timed run).  Every field of [rep] except [envelopes] is an exact
   function of the seed: it feeds the sim digest, and two repetitions of
   one seed must agree on it. *)

open Dcp_wire
module Runtime = Dcp_core.Runtime
module Message = Dcp_core.Message
module Metrics = Dcp_sim.Metrics
module Network = Dcp_net.Network
module Rpc = Dcp_primitives.Rpc
module Clock = Dcp_sim.Clock

type rep = {
  ops : int;
  failed : int;  (** ops that did not complete *)
  violations : string list;  (** correctness failures; [] when correct *)
  msgs : int;  (** messages delivered in the run *)
  bytes : int option;  (** bytes the network carried, when visible *)
  events : int;  (** engine events executed in the run *)
  latencies : int array;  (** virtual ns, one per op; [||] when undefined *)
  converge : Clock.time option;
  layers : (string * float) list;  (** exact per-layer counters, by metric name *)
  envelopes : (Port_name.t * Message.t) list;  (** traced runs: the wire replay's sample *)
}

type t = {
  name : string;
  setup : seed:int -> smoke:bool -> Span.t -> unit -> rep;
}

(* Keep the first few violations: one is enough to fail the run, and a
   broken invariant would otherwise repeat once per op. *)
let max_violations = 5

let violation list msg = if List.length !list < max_violations then list := msg :: !list

(* ---- counters of a world, read before and after the run ---- *)

type tally = {
  sends : int;
  remote : int;
  delivered : int;
  events : int;
  trace : int;
  net : Network.stats;
}

let tally world =
  let count name = Metrics.count (Metrics.counter (Runtime.metrics world) name) in
  {
    sends = count "send.total";
    remote = count "send.remote";
    delivered = count "deliver.ok";
    events = Runtime.events_executed world;
    trace = Dcp_sim.Trace.total (Runtime.trace world);
    net = Runtime.network_stats world;
  }

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* The rep fields and [sim]/[core]/[net] layer counters every runtime-built
   workload reports, from tallies taken around its run. *)
let of_tallies ~before ~after ~ops ~failed ~violations ~latencies ?converge ?(layers = [])
    ?(envelopes = []) () =
  let d f = f after - f before in
  let net f = f after.net - f before.net in
  let sends = d (fun t -> t.sends) in
  let msgs = d (fun t -> t.delivered) in
  let net_msgs = net (fun n -> n.Network.messages_sent) in
  let fragments = net (fun n -> n.Network.fragments_sent) in
  let bytes = net (fun n -> n.Network.bytes_sent) in
  {
    ops;
    failed;
    violations = List.rev violations;
    msgs;
    bytes = Some bytes;
    events = d (fun t -> t.events);
    latencies;
    converge;
    layers =
      [
        ("sim.trace_records_per_op", ratio (d (fun t -> t.trace)) ops);
        ("core.sends_per_op", ratio sends ops);
        ("core.delivered_ratio", ratio msgs sends);
        ("core.remote_share", ratio (d (fun t -> t.remote)) sends);
        ("net.msgs_per_op", ratio net_msgs ops);
        ("net.fragments_per_msg", ratio fragments net_msgs);
        ("net.fragment_loss_ratio", ratio (net (fun n -> n.Network.fragments_lost)) fragments);
        ("net.bytes_per_msg", ratio bytes net_msgs);
      ]
      @ layers;
    envelopes;
  }

(* ---- closed-loop RPC ---- *)

(* An op never fails for want of patience: when every attempt of a call
   times out, the client sends it again under the same request id, which
   the server's dedup cache answers without re-executing.  Returns the
   reply and how many calls that took. *)
let max_calls = 50

let call_until_reply ctx ~to_ ~timeout ~attempts ~request_id command args =
  let rec go calls =
    match Rpc.call ctx ~to_ ~timeout ~attempts ~request_id command args with
    | Rpc.Reply (reply, reply_args) -> Some (reply, reply_args, calls)
    | Rpc.Failure_msg _ | Rpc.Timeout -> if calls >= max_calls then None else go (calls + 1)
  in
  go 1

(* A printable payload of [n] bytes drawn from [rng]. *)
let payload rng n = String.init n (fun _ -> Char.chr (97 + Dcp_rng.Rng.int rng 26))

(* The envelope a send produces, for the wire replay. *)
let envelope ctx ~to_ ?reply_to command args =
  (to_, Message.make ?reply_to ~sent_at:(Runtime.ctx_now ctx) command args)
