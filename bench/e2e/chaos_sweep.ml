(* chaos_sweep: what the repo's developers run most — a seed sweep of the
   checker under every fault it can inject.

   [seeds] seeds of each of bank, itinerary, register and snapshot under
   wan+lossy+crash+disk: crash and recover, checkpoints, the disk-fault
   plane and the linearizability oracle.  An op is one scenario run, and it
   must pass its oracles.  The benchmark seed picks the scenario seeds from
   1 to [corpus], the range [dcp_check sweep] runs by default and every one
   of which passes on this profile.  Seeds beyond it do not all pass: bank
   and itinerary fail their oracles on a few in a thousand (see README.md),
   and a benchmark must not fail.  A
   scenario builds its world inside [Scenario.execute], so this workload
   sees only what an outcome reports: its verdict, its stats and its
   fingerprint.

   Set-up is what a scenario pays before its workload: bank and itinerary
   worlds built and bootstrapped to quiescence with an empty workload.
   register and snapshot cannot run empty (their convergence probe needs
   keys), so they are left out of it. *)

module Scenario = Dcp_check.Scenario
module Scenarios = Dcp_check.Scenarios
module Rng = Dcp_rng.Rng

let size ~smoke = if smoke then 1 else 10
let corpus = 50
let scenarios = Scenarios.[ bank; itinerary; register; snapshot ]
let empty_runnable = Scenarios.[ bank; itinerary ]

let profile =
  match Dcp_check.Profile.find "wan+lossy+crash+disk" with
  | Some p -> p
  | None -> failwith "chaos_sweep: profile wan+lossy+crash+disk is missing"

(* The message counts a scenario exposes live in its fingerprint, which
   every scenario starts with "ev=<events> sent=<messages> lost=<fragments>". *)
let network_counts outcome =
  let fingerprint = outcome.Scenario.fingerprint in
  try Scanf.sscanf fingerprint "ev=%d sent=%d lost=%d" (fun _ sent lost -> (sent, lost))
  with Scanf.Scan_failure _ | End_of_file | Failure _ ->
    failwith ("chaos_sweep: unexpected fingerprint " ^ fingerprint)

(* Disk-fault counters every scenario reports as "stable_<name>". *)
let stable_stats = [ "salvaged"; "quarantined"; "ckpt_fallbacks"; "dropped_unflushed" ]

let setup ~seed ~smoke tr =
  let rng = Rng.create ~seed in
  let seeds = List.map succ (Rng.sample_without_replacement rng (size ~smoke) corpus) in
  let runs = List.length seeds in
  let violations = ref [] in
  let check (s : Scenario.t) seed outcome =
    match Scenario.fail_reason outcome with
    | None -> true
    | Some reason ->
        Workload.violation violations (Printf.sprintf "%s seed %d: %s" s.name seed reason);
        false
  in
  List.iter
    (fun s ->
      List.iter
        (fun seed -> ignore (check s seed (Scenario.execute s ~seed ~profile ~workload:0 ())))
        seeds)
    empty_runnable;
  let kinds =
    List.map (fun (s : Scenario.t) -> (s, Span.kind tr ("check." ^ s.name) Span.Host)) scenarios
  in
  fun () ->
    let failed = ref 0 and msgs = ref 0 and lost = ref 0 and events = ref 0 in
    let stable = Array.make (List.length stable_stats) 0 in
    let events_per_run =
      List.map
        (fun ((s : Scenario.t), kind) ->
          let before = !events in
          List.iter
            (fun seed ->
              Span.enter tr kind ~req:seed;
              let outcome = Scenario.execute s ~seed ~profile () in
              Span.leave tr;
              if not (check s seed outcome) then incr failed;
              let sent, dropped = network_counts outcome in
              msgs := !msgs + sent;
              lost := !lost + dropped;
              events := !events + Scenario.stat outcome "events";
              List.iteri
                (fun i name -> stable.(i) <- stable.(i) + Scenario.stat outcome ("stable_" ^ name))
                stable_stats)
            seeds;
          ("check." ^ s.name ^ ".events_per_run", Workload.ratio (!events - before) runs))
        kinds
    in
    let ops = List.length scenarios * runs in
    {
      Workload.ops;
      failed = !failed;
      violations = List.rev !violations;
      msgs = !msgs;
      bytes = None;
      events = !events;
      latencies = [||];
      converge = None;
      layers =
        [
          ("net.msgs_per_op", Workload.ratio !msgs ops);
          ("net.fragments_lost_per_op", Workload.ratio !lost ops);
        ]
        @ events_per_run
        @ List.mapi
            (fun i name -> ("stable." ^ name ^ "_per_run", Workload.ratio stable.(i) ops))
            stable_stats;
      envelopes = [];
    }

let workload = { Workload.name = "chaos_sweep"; setup }
