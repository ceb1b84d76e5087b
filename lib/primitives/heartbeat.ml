open Dcp_wire
module Runtime = Dcp_core.Runtime
module Clock = Dcp_sim.Clock

type watcher = { mutable stopped : bool; mutable suspected : bool }

let watch ctx ~peer ~notify ?(period = Clock.ms 500) ?(ping_timeout = Clock.ms 200)
    ?(misses = 3) () =
  if misses <= 0 then invalid_arg "Heartbeat.watch: misses must be positive";
  let w = { stopped = false; suspected = false } in
  ignore
    (Runtime.spawn ctx ~name:"heartbeat.watch" (fun () ->
         let consecutive = ref 0 in
         let rec tick () =
           if not w.stopped then begin
             (* A fresh RPC per ping; any reply — even failure(...) from the
                peer's node — proves the node is alive and routing. *)
             let answered =
               match Rpc.call ctx ~to_:peer ~timeout:ping_timeout "ping" [] with
               | Rpc.Reply _ -> true
               | Rpc.Failure_msg _ -> true
               | Rpc.Timeout -> false
             in
             if answered then begin
               consecutive := 0;
               if w.suspected then begin
                 w.suspected <- false;
                 Runtime.send ctx ~to_:notify "peer_up" []
               end
             end
             else begin
               incr consecutive;
               if (not w.suspected) && !consecutive >= misses then begin
                 w.suspected <- true;
                 Runtime.send ctx ~to_:notify "peer_down" [ Value.int !consecutive ]
               end
             end;
             Runtime.sleep ctx period;
             tick ()
           end
         in
         tick ()));
  w

let stop w = w.stopped <- true
let is_suspected w = w.suspected

let watch_node ctx ~node ~notify ?period ?ping_timeout ?misses () =
  let peer = Dcp_core.Primordial.port_of (Runtime.ctx_world ctx) node in
  watch ctx ~peer ~notify ?period ?ping_timeout ?misses ()
