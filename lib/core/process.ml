module Engine = Dcp_sim.Engine

type state = Created | Running | Blocked | Finished | Dead

type t = {
  name : string;
  mutable state : state;
  mutable failure : exn option;
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

(* Run [f] with [p] recorded as the current process, restoring the previous
   current process afterwards — resumes can nest (an unlock in process A can
   synchronously resume process B). *)
let with_current p f =
  let previous = Dcp_sim.Exec.local_get current in
  Dcp_sim.Exec.local_set current (Some p);
  Fun.protect ~finally:(fun () -> Dcp_sim.Exec.local_set current previous) f

let spawn engine ~name body =
  let p = { name; state = Created; failure = None } in
  let handler : (unit, unit) Effect.Deep.handler =
    {
      retc = (fun () -> if p.state <> Dead then p.state <- Finished);
      exnc =
        (fun e ->
          if p.state <> Dead then begin
            p.state <- Finished;
            p.failure <- Some e;
            Logs.warn (fun m ->
                m "process %s died with exception %s" p.name (Printexc.to_string e))
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
                  let resumed = ref false in
                  let resume v =
                    if not !resumed then begin
                      resumed := true;
                      if p.state = Blocked then begin
                        p.state <- Running;
                        with_current p (fun () -> Effect.Deep.continue k v)
                      end
                      (* a killed process's continuation is dropped; the
                         fiber is reclaimed by the GC *)
                    end
                  in
                  register resume
                  end)
          | _ -> None);
    }
  in
  let start () =
    if p.state = Created then begin
      p.state <- Running;
      with_current p (fun () -> Effect.Deep.match_with body () handler)
    end
  in
  ignore (Engine.schedule_after engine ~delay:0 start);
  p

let suspend register = Effect.perform (Suspend register)

let sleep engine d =
  suspend (fun resume -> ignore (Engine.schedule_after engine ~delay:d (fun () -> resume ())))
