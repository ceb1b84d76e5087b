open Dcp_wire
module Engine = Dcp_sim.Engine

type waiter = { mutable active : bool; mutable deliver : t * Message.t -> unit }

and t = {
  pname : Port_name.t;
  ptype : Vtype.port_type;
  capacity : int;
  queue : Message.t Queue.t;
  mutable waiters : waiter list;  (** FIFO; inactive entries filtered lazily *)
  mutable is_open : bool;
}

let create ~name ~ptype ~capacity =
  if capacity <= 0 then invalid_arg "Port.create: capacity must be positive";
  { pname = name; ptype; capacity; queue = Queue.create (); waiters = []; is_open = true }

let name t = t.pname
let ptype t = t.ptype
let queued t = Queue.length t.queue
let waiter_count t = List.length t.waiters

let rec pop_waiter t =
  match t.waiters with
  | [] -> None
  | w :: rest ->
      t.waiters <- rest;
      if w.active then Some w else pop_waiter t

let enqueue t msg =
  if not t.is_open then `Closed
  else
    match pop_waiter t with
    | Some w ->
        w.active <- false;
        w.deliver (t, msg);
        `Delivered
    | None ->
        if Queue.length t.queue >= t.capacity then `Full
        else begin
          Queue.add msg t.queue;
          `Queued
        end

let close t =
  t.is_open <- false;
  Queue.clear t.queue;
  t.waiters <- []

let reopen t =
  Queue.clear t.queue;
  t.waiters <- [];
  t.is_open <- true

type outcome = [ `Msg of t * Message.t | `Timeout ]

let try_receive ~ports =
  let rec scan = function
    | [] -> None
    | p :: rest -> (
        match Queue.take_opt p.queue with
        | Some msg -> Some (p, msg)
        | None -> scan rest)
  in
  scan ports

let receive engine ~ports ~timeout : outcome =
  if ports = [] then invalid_arg "Port.receive: empty port list";
  match try_receive ~ports with
  | Some (p, msg) -> `Msg (p, msg)
  | None ->
      Process.suspend (fun resume ->
          let w = { active = true; deliver = (fun _ -> ()) } in
          (* A waiter registers on every port in the list, but resumes (or
             times out) exactly once; eagerly drop it from all the other
             ports then, or quiet ports accumulate dead waiters without
             bound (heartbeat-style receive loops leak otherwise). *)
          let deregister () =
            List.iter (fun p -> p.waiters <- List.filter (fun x -> x != w) p.waiters) ports
          in
          let timer =
            Option.map
              (fun d ->
                Engine.schedule_after engine ~delay:d (fun () ->
                    if w.active then begin
                      w.active <- false;
                      deregister ();
                      resume `Timeout
                    end))
              timeout
          in
          w.deliver <-
            (fun (p, msg) ->
              Option.iter Engine.cancel timer;
              deregister ();
              resume (`Msg (p, msg)));
          List.iter (fun p -> p.waiters <- p.waiters @ [ w ]) ports)
