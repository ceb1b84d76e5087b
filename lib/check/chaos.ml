module Clock = Dcp_sim.Clock
module Runtime = Dcp_core.Runtime
module Rng = Dcp_rng.Rng

let driver world ~at ~name body =
  let def =
    { Runtime.def_name = name; provides = []; init = (fun ctx _ -> body ctx); recover = None }
  in
  Runtime.register_def world def;
  ignore (Runtime.create_guardian world ~at ~def_name:name ~args:[])

(* Schedule random crash/restart cycles on the given nodes over a horizon;
   outages last [crash_outage].  How many nodes may be down at once is the
   profile's [max_concurrent_crashes]: at the default 1 a crash only
   targets an up node, while larger bounds crash into existing outages
   until the bound is met, so recovery and anti-entropy run while peers
   are still dark.

   A crash event must run on the victim's own shard (crash/restart touch
   only that shard's state), so the whole plan is drawn up front — every
   jitter, then every victim — and each event is pinned to its node with
   [schedule_at].  The chaos rng is private to the plan, so the plan is a
   function of it alone. *)
let schedule_crashes world ~rng ~profile ~nodes ~horizon =
  match (profile.Profile.crash_every, nodes) with
  | None, _ | _, [] -> ()
  | Some every, _ :: _ ->
      let outage = profile.Profile.crash_outage in
      let jitter = Int.max 1 (every / 2) in
      let may_crash victim =
        Runtime.node_up world victim
        && (profile.Profile.max_concurrent_crashes <= 1
           || List.length (List.filter (fun n -> not (Runtime.node_up world n)) nodes)
              < profile.Profile.max_concurrent_crashes)
      in
      let rec times at acc =
        if at < horizon then times (at + every) ((at + Rng.int rng jitter) :: acc)
        else List.rev acc
      in
      let plan = List.map (fun at -> (at, Rng.choice_list rng nodes)) (times every []) in
      List.iter
        (fun (at, victim) ->
          Runtime.schedule_at world ~node:victim ~at (fun () ->
              if may_crash victim then begin
                Runtime.crash_node world victim;
                Runtime.schedule_at world ~node:victim ~at:(at + outage) (fun () ->
                    Runtime.restart_node world victim)
              end))
        plan;
      (* Leave no node down past the horizon: one event per node, so each
         runs on its own shard. *)
      List.iter
        (fun node ->
          Runtime.schedule_at world ~node
            ~at:(horizon + outage + Clock.s 1)
            (fun () -> if not (Runtime.node_up world node) then Runtime.restart_node world node))
        nodes
