open Dcp_wire
module Engine = Dcp_sim.Engine

(* One blocked receive: registered on every port of its list, resumed (or
   timed out) exactly once.  A timed one is also the payload of its
   timeout event, which is dead once the waiter is served, so [enqueue]
   tells [engine] so and keeps no handle on the event.  [enqueue] and the
   timeout act on it through the module-level functions below, so
   blocking builds no closure. *)
type waiter = {
  mutable active : bool;
  wports : t list;
  resume : outcome -> unit;
  engine : Engine.t;
  timed : bool;
}

and t = {
  pname : Port_name.t;
  ptype : Vtype.port_type;
  capacity : int;
  queue : Message.t Queue.t;
  mutable waiters : waiter list;  (** FIFO *)
  mutable is_open : bool;
  mutable commands : Command.decl option;
}

and outcome = [ `Msg of t * Message.t | `Timeout ]

let create ~name ~ptype ~capacity =
  if capacity <= 0 then invalid_arg "Port.create: capacity must be positive";
  {
    pname = name;
    ptype;
    capacity;
    queue = Queue.create ();
    waiters = [];
    is_open = true;
    commands = None;
  }

let name t = t.pname
let ptype t = t.ptype
let commands t = t.commands

let declare t decl =
  if not (Command.declares decl t.ptype) then
    invalid_arg "Port.declare: the commands are not the port's type";
  t.commands <- Some decl
let queued t = Queue.length t.queue
let waiter_count t = List.length t.waiters

(* A waiter that resumes or times out leaves every port it is registered
   on at once, or quiet ports accumulate dead waiters without bound
   (heartbeat-style receive loops leak otherwise).  [remove] copies only
   the waiters ahead of it: none on the port that serves it, where it is
   first, nor on a port it waits on alone. *)
let rec remove w = function
  | [] -> []
  | x :: rest -> if x == w then rest else x :: remove w rest

let rec leave w = function
  | [] -> ()
  | p :: rest ->
      p.waiters <- remove w p.waiters;
      leave w rest

let time_out w () =
  w.active <- false;
  leave w w.wports;
  w.resume `Timeout

let timeout_event = { Engine.fire = time_out; live = (fun w -> w.active) }

(* Hand [msg] to the first active waiter. *)
let rec serve t msg =
  match t.waiters with
  | [] -> false
  | w :: rest ->
      if w.active then begin
        w.active <- false;
        if w.timed then Engine.discard w.engine;
        leave w w.wports;
        w.resume (`Msg (t, msg));
        true
      end
      else begin
        t.waiters <- rest;
        serve t msg
      end

let enqueue t msg =
  if not t.is_open then `Closed
  else if serve t msg then `Delivered
  else if Queue.length t.queue >= t.capacity then `Full
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

(* The first port of the list that holds a message, as the outcome the
   receive returns; [`Timeout] when none does. *)
let rec take = function
  | [] -> `Timeout
  | p :: rest -> if Queue.is_empty p.queue then take rest else `Msg (p, Queue.take p.queue)

let try_receive ~ports = match take ports with `Msg (p, msg) -> Some (p, msg) | `Timeout -> None

let rec join w = function
  | [] -> ()
  | p :: rest ->
      p.waiters <- p.waiters @ [ w ];
      join w rest

let wait engine ports timeout resume =
  match timeout with
  | None -> join { active = true; wports = ports; resume; engine; timed = false } ports
  | Some delay ->
      let w = { active = true; wports = ports; resume; engine; timed = true } in
      Engine.post_after engine ~delay timeout_event w ();
      join w ports

let receive engine ~ports ~timeout : outcome =
  if ports = [] then invalid_arg "Port.receive: empty port list";
  match take ports with
  | `Msg _ as got -> got
  | `Timeout -> Process.suspend (fun resume -> wait engine ports timeout resume)
