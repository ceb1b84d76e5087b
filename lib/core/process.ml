module Engine = Dcp_sim.Engine

type state = Created | Running | Blocked | Finished | Dead

type t = {
  name : string;
  mutable state : state;
  mutable failure : exn option;
  mutable suspensions : int;  (** how many times it has blocked *)
  some : t option;  (** [Some] itself, for the current-process register *)
}

type _ Effect.t += Suspend : (('a -> unit) -> unit) -> 'a Effect.t

(* The current-process register is per-domain: each shard's engine resumes
   its own fibers, and shards must not observe each other's scheduler
   state. *)
let current : t option Dcp_sim.Exec.domain_local =
  Dcp_sim.Exec.domain_local (fun () -> None)

let self () = Dcp_sim.Exec.local_get current

let name t = t.name
let state t = t.state
let alive t = match t.state with Created | Running | Blocked -> true | Finished | Dead -> false
let failure t = t.failure

let kill t = if alive t then t.state <- Dead

(* Record [p] as the current process, returning the previous one, which
   [leave] restores after the fiber gives control back — resumes can nest
   (an unlock in process A can synchronously resume process B).  A resume
   runs these around [continue] itself, so it builds no closure. *)
let enter p =
  let previous = Dcp_sim.Exec.local_get current in
  Dcp_sim.Exec.local_set current p.some;
  previous

let leave previous = Dcp_sim.Exec.local_set current previous

let leave_raising previous e =
  let trace = Printexc.get_raw_backtrace () in
  leave previous;
  Printexc.raise_with_backtrace e trace

(* The effect handler of [p]'s fiber. *)
let handler p : (unit, unit) Effect.Deep.handler =
  {
    retc = (fun () -> if p.state <> Dead then p.state <- Finished);
    exnc =
      (fun e ->
        if p.state <> Dead then begin
          p.state <- Finished;
          p.failure <- Some e;
          Logs.warn (fun m -> m "process %s died with exception %s" p.name (Printexc.to_string e))
        end);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Suspend register ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                if p.state = Dead then ()
                  (* killed while running: stop at this suspension point;
                     the continuation is dropped *)
                else begin
                  p.state <- Blocked;
                  p.suspensions <- p.suspensions + 1;
                  let suspension = p.suspensions in
                  (* Only the first call of this suspension's resume, while
                     the process is still blocked in it, continues it; a
                     killed process's continuation is dropped, and the
                     fiber is reclaimed by the GC. *)
                  let resume v =
                    if p.state = Blocked && p.suspensions = suspension then begin
                      p.state <- Running;
                      let previous = enter p in
                      match Effect.Deep.continue k v with
                      | () -> leave previous
                      | exception e -> leave_raising previous e
                    end
                  in
                  register resume
                end)
        | _ -> None);
  }

let run p body =
  if p.state = Created then begin
    p.state <- Running;
    let previous = enter p in
    match Effect.Deep.match_with body () (handler p) with
    | () -> leave previous
    | exception e -> leave_raising previous e
  end

(* A process start is an event of this kind: the process and its body. *)
let start = { Engine.fire = run; live = Engine.always }

let spawn engine ~name body =
  let rec p = { name; state = Created; failure = None; suspensions = 0; some = Some p } in
  Engine.post_after engine ~delay:0 start p body;
  p

let suspend register = Effect.perform (Suspend register)

let sleep engine d = suspend (fun resume -> Engine.schedule_after engine ~delay:d resume)
