open Dcp_wire
module Runtime = Dcp_core.Runtime
module Message = Dcp_core.Message
module Store = Dcp_stable.Store
module Metrics = Dcp_sim.Metrics
module Clock = Dcp_sim.Clock
module Rng = Dcp_rng.Rng

type config = { status_every : Clock.time; resend_max : int }

let default_config = { status_every = Clock.ms 100; resend_max = 32 }

type msg_id = { origin : int; seq : int }
type ts = int * int

let ts_compare (c1, o1) (c2, o2) =
  let c = Int.compare c1 c2 in
  if c <> 0 then c else Int.compare o1 o2

type delivery = { id : msg_id; ts : ts; payload : Value.t }

let status_fields = [ Vtype.Tint; Vtype.Tint; Vtype.Tlist Vtype.Tint; Vtype.Tlist Vtype.Tint ]

let signatures =
  [
    (* scd_msg(origin, seq, clock, payload) *)
    Vtype.signature "scd_msg" [ Vtype.Tint; Vtype.Tint; Vtype.Tint; Vtype.Tany ];
    (* scd_status(from, clock, per-origin contiguous-receive watermarks,
       per-origin durable delivered watermarks) *)
    Vtype.signature "scd_status" status_fields;
    (* scd_ask: a status that asks for one back *)
    Vtype.signature "scd_ask" status_fields;
  ]

let members_signature =
  Rpc.request_signature "members" [ Vtype.Tlist Vtype.Tport ]
    ~replies:[ Vtype.reply "members_ok" [] ]

(* ---- metric names (shared with oracles and benches) ---- *)

let metric_msgs = "scd.msgs"
let metric_statuses = "scd.statuses"
let metric_resends = "scd.resends"
let metric_malformed = "scd.malformed"
let metric_sets = "scd.sets"
let metric_set_msgs = "scd.set_msgs"

type meters = {
  msgs : Metrics.counter;
  statuses : Metrics.counter;
  resends : Metrics.counter;
  malformed : Metrics.counter;
  sets : Metrics.counter;
  set_msgs : Metrics.counter;
}

let meters_of ctx =
  let reg = Runtime.ctx_metrics ctx in
  {
    msgs = Metrics.counter reg metric_msgs;
    statuses = Metrics.counter reg metric_statuses;
    resends = Metrics.counter reg metric_resends;
    malformed = Metrics.counter reg metric_malformed;
    sets = Metrics.counter reg metric_sets;
    set_msgs = Metrics.counter reg metric_set_msgs;
  }

(* ---- state ---- *)

(* Per-member bookkeeping, indexed by origin.  [queue] holds received,
   contiguous, not-yet-delivered messages of that origin in seq order —
   because an origin's clock rises strictly with its seq, the queue is also
   clock-sorted, so frontier delivery only ever pops the front.  [ooo] is
   the out-of-order reorder buffer (a gap below it is still in flight or
   lost).  Both are volatile: after a crash they refill through origin
   resends triggered by our statuses.  [heard], [their_seq] and
   [acked_mine] are what the peer's last status said, volatile too: they
   only decide whom the ticker asks. *)
type origin_state = {
  mutable next_seq : int;  (** all seqs below are received or delivered *)
  mutable delivered_seq : int;  (** durable: highest seq delivered *)
  queue : (int * int * Value.t) Queue.t;  (** (seq, clock, payload) *)
  ooo : (int, int * Value.t) Hashtbl.t;  (** seq -> (clock, payload) *)
  mutable safe_clock : int;  (** largest clock this member announced safe *)
  mutable delivered_mine : int;
      (** highest own seq this member announced {e delivered}.  Durable at
          the peer, hence monotone across its crashes — unlike its receive
          watermark, which regresses when a crash wipes its reorder state.
          Pruning the own-log must key on this one: a pruned entry can
          never be resent. *)
  mutable heard : bool;  (** a status came from this member since we (re)started *)
  mutable their_seq : int;  (** its own last seq, as it last reported *)
  mutable acked_mine : int;  (** its contiguous receive seq for us, as it last reported *)
}

type t = {
  config : config;
  members : Port_name.t array;  (** sorted: all members agree on indices *)
  self : int;
  origins : origin_state array;
  own_log : (int, int * Value.t) Hashtbl.t;  (** durable: seq -> (clock, payload) *)
  mutable own_floor : int;  (** own_log pruned through this seq *)
  mutable clock : int;
  mutable seq : int;
  mutable frontier : int;
  delivered : delivery list Queue.t;  (** complete sets awaiting {!drain} *)
  rng : Rng.t;  (** ticker phase stagger, split from the world RNG *)
  mutable first_tick : Clock.time;  (** the ticker ticks at [first_tick + k * status_every] *)
  mutable parked : (unit -> unit) option;  (** resumes the ticker parked for want of a need *)
  m : meters;
}

let self t = t.self
let malformed t = Metrics.incr t.m.malformed

(* ---- persistence ---- *)

let members_key = "scd:members"
let config_key = "scd:config"
let clock_key = "scd:clock"
let seq_key = "scd:seq"
let frontier_key = "scd:frontier"
let dseq_key j = Printf.sprintf "scd:dseq:%d" j
let own_key seq = Printf.sprintf "scd:own:%08d" seq
let own_prefix = "scd:own:"

let persist_int ctx key v = Store.set (Runtime.store ctx) ~key (string_of_int v)

let int_in_store store key =
  Option.bind (Store.get store ~key) int_of_string_opt |> Option.value ~default:0

let persist_members ctx members =
  Store.set (Runtime.store ctx) ~key:members_key
    (Codec.encode_exn (Value.list (List.map Value.port (Array.to_list members))))

let persist_config ctx (c : config) =
  Store.set (Runtime.store ctx) ~key:config_key
    (Printf.sprintf "%d %d" c.status_every c.resend_max)

let persist_group_config = persist_config

let config_in_store store =
  match Store.get store ~key:config_key with
  | None -> default_config
  | Some data -> (
      match String.split_on_char ' ' data with
      | [ se; rm ] -> (
          match (int_of_string_opt se, int_of_string_opt rm) with
          | Some status_every, Some resend_max when status_every > 0 && resend_max > 0 ->
              { status_every; resend_max }
          | _ -> default_config)
      | _ -> default_config)

(* An own-log record is "<clock> <payload bytes>"; the payload's encoding
   may contain any byte, so only the first space separates. *)
let encode_own ~clock payload = Printf.sprintf "%d %s" clock (Codec.encode_exn payload)

let decode_own data =
  match String.index_opt data ' ' with
  | None -> None
  | Some i -> (
      let clock = int_of_string_opt (String.sub data 0 i) in
      let rest = String.sub data (i + 1) (String.length data - i - 1) in
      match (clock, Codec.decode rest) with
      | Some clock, Ok payload when clock > 0 -> Some (clock, payload)
      | _ -> None)

let persist_own ctx ~seq ~clock payload =
  Store.set (Runtime.store ctx) ~key:(own_key seq) (encode_own ~clock payload)

(* ---- delivery ---- *)

(* The frontier rule.  safe_clock.(q) was announced by q only once we held
   every message q itself had broadcast by then, so (inductively, see
   DESIGN.md §12) every existing message with clock <= min safe_clock is
   sitting contiguous in some queue here: delivering queue fronts up to the
   minimum cannot skip a message.  Own clock stands in for our own
   announcement. *)
let try_deliver ctx t =
  let horizon = ref t.clock in
  Array.iteri
    (fun j o -> if j <> t.self && o.safe_clock < !horizon then horizon := o.safe_clock)
    t.origins;
  if !horizon > t.frontier then begin
    let collected = ref [] in
    Array.iteri
      (fun j o ->
        let rec pop () =
          match Queue.peek_opt o.queue with
          | Some (seq, clock, payload) when clock <= !horizon ->
              ignore (Queue.pop o.queue);
              o.delivered_seq <- seq;
              persist_int ctx (dseq_key j) seq;
              collected := { id = { origin = j; seq }; ts = (clock, j); payload } :: !collected;
              pop ()
          | _ -> ()
        in
        pop ())
      t.origins;
    t.frontier <- !horizon;
    persist_int ctx frontier_key t.frontier;
    match List.sort (fun a b -> ts_compare a.ts b.ts) !collected with
    | [] -> ()
    | set ->
        Metrics.incr t.m.sets;
        Metrics.add t.m.set_msgs (List.length set);
        Queue.add set t.delivered
  end

let drain t =
  let rec take acc =
    match Queue.take_opt t.delivered with
    | Some set -> take (set :: acc)
    | None -> List.rev acc
  in
  take []

(* ---- the ask rule ---- *)

(* A member sends statuses only where one is needed (DESIGN.md §12): on
   its ticker phase it asks each peer it needs something from, and every
   ask is answered at once.  It needs something from peer j while

   1. it has not heard from j since it (re)started;
   2. j has broadcast messages it lacks, or j's reorder buffer here is not
      empty;
   3. j lacks some of its messages;
   4. it holds an undelivered message stamped above j's trusted clock, so
      j blocks its frontier.

   A broadcaster holds its own message undelivered, so 3 and 4 keep it
   asking until every peer holds the message and is trusted past it. *)

let status_args t =
  let n = Array.length t.members in
  let acks = List.init n (fun j -> Value.int (t.origins.(j).next_seq - 1)) in
  let dacks = List.init n (fun j -> Value.int t.origins.(j).delivered_seq) in
  [ Value.int t.self; Value.int t.clock; Value.list acks; Value.list dacks ]

(* The highest clock among held, undelivered messages; 0 when none. *)
let undelivered_clock t =
  Array.fold_left
    (fun acc o -> Queue.fold (fun acc (_, clock, _) -> Int.max acc clock) acc o.queue)
    0 t.origins

(* The peers this member needs something from, by the four rules. *)
let needed t =
  let undelivered = undelivered_clock t in
  List.filter
    (fun j ->
      let o = t.origins.(j) in
      j <> t.self
      && ((not o.heard)
         || o.next_seq - 1 < o.their_seq
         || Hashtbl.length o.ooo > 0
         || o.acked_mine < t.seq
         || undelivered > o.safe_clock))
    (List.init (Array.length t.members) Fun.id)

(* Called after every broadcast and receipt: a parked ticker that now has
   a need resumes, and sleeps to its next phase instant before asking. *)
let wake t =
  match t.parked with
  | Some resume when needed t <> [] ->
      t.parked <- None;
      resume ()
  | Some _ | None -> ()

(* ---- outbound ---- *)

let observe_clock ctx t c =
  if c > t.clock then begin
    t.clock <- c;
    persist_int ctx clock_key t.clock
  end

let broadcast ctx t payload =
  t.clock <- t.clock + 1;
  t.seq <- t.seq + 1;
  persist_int ctx clock_key t.clock;
  persist_int ctx seq_key t.seq;
  Hashtbl.replace t.own_log t.seq (t.clock, payload);
  persist_own ctx ~seq:t.seq ~clock:t.clock payload;
  let o = t.origins.(t.self) in
  Queue.add (t.seq, t.clock, payload) o.queue;
  o.next_seq <- t.seq + 1;
  let args = [ Value.int t.self; Value.int t.seq; Value.int t.clock; payload ] in
  Array.iteri
    (fun j port -> if j <> t.self then Runtime.send ctx ~to_:port "scd_msg" args)
    t.members;
  try_deliver ctx t;
  wake t;
  { origin = t.self; seq = t.seq }

(* Ask every peer this member needs something from; false when it needs
   nothing from anyone. *)
let tick ctx t =
  match needed t with
  | [] -> false
  | peers ->
      let args = status_args t in
      List.iter (fun j -> Runtime.send ctx ~to_:t.members.(j) "scd_ask" args) peers;
      true

(* The ticker parks when a tick asks nobody.  {!wake} resumes it inside
   the caller's event, and it sleeps from there to its next phase
   instant: it ticks only where an always-on ticker would. *)
let spawn_ticker ctx t =
  let period = t.config.status_every in
  ignore
    (Runtime.spawn ctx ~name:"scd.ticker" (fun () ->
         Runtime.sleep ctx (Rng.int t.rng (Int.max 1 period));
         t.first_tick <- Runtime.ctx_now ctx;
         let rec loop () =
           if tick ctx t then Runtime.sleep ctx period
           else begin
             Dcp_core.Process.suspend (fun resume -> t.parked <- Some resume);
             let since = Runtime.ctx_now ctx - t.first_tick in
             Runtime.sleep ctx (period - (since mod period))
           end;
           loop ()
         in
         loop ()))

(* ---- inbound ---- *)

let receive_msg ctx t ~origin ~seq ~clock payload =
  let n = Array.length t.members in
  if origin < 0 || origin >= n || origin = t.self || seq < 1 || clock < 1 then malformed t
  else begin
    Metrics.incr t.m.msgs;
    observe_clock ctx t clock;
    let o = t.origins.(origin) in
    if seq >= o.next_seq && not (Hashtbl.mem o.ooo seq) then begin
      Hashtbl.replace o.ooo seq (clock, payload);
      let rec advance () =
        match Hashtbl.find_opt o.ooo o.next_seq with
        | Some (c, p) ->
            Hashtbl.remove o.ooo o.next_seq;
            Queue.add (o.next_seq, c, p) o.queue;
            o.next_seq <- o.next_seq + 1;
            advance ()
        | None -> ()
      in
      advance ()
    end;
    try_deliver ctx t
  end

(* Prune the durable own-message log: everything at or below every peer's
   durable {e delivered} watermark AND our own delivery watermark is safe
   to drop.  A peer that delivered seq s restarts its receive cursor at
   s + 1, so it can never ask for s again — whereas its received-but-
   undelivered watermark regresses across a crash, and pruning on that one
   would leave a gap no resend can ever fill (the frontier stall this
   module's chaos sweeps used to hit).  Entries above our own
   delivered_seq must survive even once everyone delivered them: recovery
   re-enqueues our undelivered tail from this log. *)
let prune_own ctx t =
  let floor = ref t.origins.(t.self).delivered_seq in
  Array.iteri
    (fun j o -> if j <> t.self && o.delivered_mine < !floor then floor := o.delivered_mine)
    t.origins;
  if !floor > t.own_floor then begin
    let store = Runtime.store ctx in
    for s = t.own_floor + 1 to !floor do
      Hashtbl.remove t.own_log s;
      Store.remove store ~key:(own_key s)
    done;
    t.own_floor <- !floor
  end

(* Exactly [Array.length into] non-negative ints, written into [into]
   from slot [i] on. *)
let rec fill_watermarks into i values =
  match values with
  | [] -> i = Array.length into
  | Value.Int a :: rest when a >= 0 && i < Array.length into ->
      into.(i) <- a;
      fill_watermarks into (i + 1) rest
  | _ :: _ -> false

let parse_watermarks n values =
  let into = Array.make n 0 in
  if fill_watermarks into 0 values then Some into else None

(* Asks and answers share this path; only an ask is answered, with the
   status as it stands once the ask is taken in. *)
let receive_status ctx t ~ask ~from ~clock acks dacks =
  let n = Array.length t.members in
  match (parse_watermarks n acks, parse_watermarks n dacks) with
  | Some acks, Some dacks when from >= 0 && from < n && from <> t.self && clock >= 0 -> begin
      Metrics.incr t.m.statuses;
      observe_clock ctx t clock;
      let o = t.origins.(from) in
      o.heard <- true;
      o.their_seq <- acks.(from);
      o.acked_mine <- acks.(t.self);
      (* Safe only if we hold everything the sender itself had broadcast by
         this status: its announced clock then bounds all its in-flight
         messages we have yet to see. *)
      if t.origins.(from).next_seq - 1 >= acks.(from) && clock > o.safe_clock then
        o.safe_clock <- clock;
      if o.delivered_mine < dacks.(t.self) then o.delivered_mine <- dacks.(t.self);
      (* Origin-driven loss recovery: the sender is missing our messages
         above its contiguous ack, so resend a bounded batch. *)
      let missing_from = acks.(t.self) in
      if missing_from < t.seq then begin
        let upto = Int.min t.seq (missing_from + t.config.resend_max) in
        for s = missing_from + 1 to upto do
          match Hashtbl.find_opt t.own_log s with
          | Some (c, payload) ->
              Metrics.incr t.m.resends;
              Runtime.send ctx ~to_:t.members.(from) "scd_msg"
                [ Value.int t.self; Value.int s; Value.int c; payload ]
          | None -> ()
        done
      end;
      prune_own ctx t;
      try_deliver ctx t;
      if ask then Runtime.send ctx ~to_:t.members.(from) "scd_status" (status_args t)
    end
  | _, _ -> malformed t

let handle ctx t (msg : Message.t) =
  match (msg.Message.command, msg.Message.args) with
  | "scd_msg", [ Value.Int origin; Value.Int seq; Value.Int clock; payload ] ->
      receive_msg ctx t ~origin ~seq ~clock payload;
      wake t;
      `Handled
  | (("scd_status" | "scd_ask") as command),
    [ Value.Int from; Value.Int clock; Value.Listv acks; Value.Listv dacks ] ->
      receive_status ctx t ~ask:(String.equal command "scd_ask") ~from ~clock acks dacks;
      wake t;
      `Handled
  | ("scd_msg" | "scd_status" | "scd_ask"), _ ->
      malformed t;
      `Handled
  | _ -> `Unrelated

(* ---- construction and recovery ---- *)

let fresh_origin () =
  {
    next_seq = 1;
    delivered_seq = 0;
    queue = Queue.create ();
    ooo = Hashtbl.create 8;
    safe_clock = 0;
    delivered_mine = 0;
    heard = false;
    their_seq = 0;
    acked_mine = 0;
  }

let make ctx ~config ~members ~self =
  {
    config;
    members;
    self;
    origins = Array.init (Array.length members) (fun _ -> fresh_origin ());
    own_log = Hashtbl.create 32;
    own_floor = 0;
    clock = 0;
    seq = 0;
    frontier = 0;
    delivered = Queue.create ();
    rng = Rng.split (Runtime.ctx_rng ctx);
    first_tick = 0;
    parked = None;
    m = meters_of ctx;
  }

(* A member's origin index is its port's place in the sorted member list;
   -1 when absent. *)
let index_of members port =
  let found = ref (-1) in
  Array.iteri (fun i p -> if Port_name.equal p port then found := i) members;
  !found

let self_index ctx members =
  let found = index_of members (Dcp_core.Port.name (Runtime.port ctx 0)) in
  if found < 0 then invalid_arg "Scd.create: own port 0 not among the members";
  found

let create ctx ?(config = default_config) ~members () =
  if config.status_every <= 0 then invalid_arg "Scd.create: status_every must be positive";
  if config.resend_max <= 0 then invalid_arg "Scd.create: resend_max must be positive";
  if members = [] then invalid_arg "Scd.create: empty member list";
  let members = Array.of_list (List.sort_uniq Port_name.compare members) in
  let self = self_index ctx members in
  let t = make ctx ~config ~members ~self in
  persist_members ctx members;
  persist_config ctx config;
  persist_int ctx clock_key 0;
  persist_int ctx seq_key 0;
  persist_int ctx frontier_key 0;
  t

(* A member list, as the ["members"] request carries it and as the store
   keeps it: a [Listv] of [Portv]s, anything else rejected. *)
let parse_members value =
  match value with
  | Value.Listv ports ->
      let parsed =
        List.fold_left
          (fun acc v ->
            match (acc, v) with
            | Some parsed, Value.Portv p -> Some (p :: parsed)
            | _, _ -> None)
          (Some []) ports
      in
      Option.map List.rev parsed
  | _ -> None

let members_in_store store =
  match Store.get store ~key:members_key with
  | None -> None
  | Some encoded -> (
      match Codec.decode encoded with Ok v -> parse_members v | Error _ -> None)

type progress = { origin : int; broadcast : int; delivered : int array }

let progress_in_store store ~port =
  match members_in_store store with
  | None -> None
  | Some members ->
      let members = Array.of_list members in
      let origin = index_of members port in
      if origin < 0 then None
      else
        Some
          {
            origin;
            broadcast = int_in_store store seq_key;
            delivered =
              Array.init (Array.length members) (fun j -> int_in_store store (dseq_key j));
          }

let recover ctx =
  let store = Runtime.store ctx in
  match members_in_store store with
  | None -> None
  | Some members ->
      let members = Array.of_list members in
      let self = self_index ctx members in
      let t = make ctx ~config:(config_in_store store) ~members ~self in
      t.clock <- int_in_store store clock_key;
      t.seq <- int_in_store store seq_key;
      t.frontier <- int_in_store store frontier_key;
      Array.iteri (fun j o -> o.delivered_seq <- int_in_store store (dseq_key j)) t.origins;
      Array.iter (fun o -> o.next_seq <- o.delivered_seq + 1) t.origins;
      (* Reload the durable own-message log (for resends), and re-enqueue
         our own broadcast-but-undelivered tail: it was sitting in the
         volatile queue when the node died, and no peer will resend our own
         messages to us. *)
      let floor = ref Int.max_int in
      List.iter
        (fun (key, data) ->
          if String.starts_with ~prefix:own_prefix key then
            let seq =
              int_of_string_opt
                (String.sub key (String.length own_prefix)
                   (String.length key - String.length own_prefix))
            in
            match (seq, decode_own data) with
            | Some seq, Some entry ->
                Hashtbl.replace t.own_log seq entry;
                if seq - 1 < !floor then floor := seq - 1
            | _, _ -> Store.remove store ~key (* torn record: drop it *))
        (Store.to_alist store);
      t.own_floor <- (if !floor = Int.max_int then t.origins.(self).delivered_seq else !floor);
      let own = t.origins.(self) in
      for s = own.delivered_seq + 1 to t.seq do
        match Hashtbl.find_opt t.own_log s with
        | Some (c, payload) ->
            Queue.add (s, c, payload) own.queue;
            own.next_seq <- s + 1
        | None -> ()
      done;
      own.next_seq <- Int.max own.next_seq (t.seq + 1);
      Some t

(* ---- membership bootstrap ---- *)

(* The bootstrap keeps offering the member list until every member has
   acknowledged: a member crashed through one round joins in a later one
   (its store has nothing yet, so only the join makes it a member). *)
let introduce world ~group ~at ~members =
  let def_name = group ^ "_bootstrap" in
  if Runtime.find_def world def_name <> None then
    invalid_arg (Printf.sprintf "Scd.introduce: group %s already introduced" group);
  let n = List.length members in
  let max_rounds = 200 in
  let bootstrap : Runtime.def =
    {
      Runtime.def_name;
      provides = [];
      init =
        (fun ctx _ ->
          let payload = [ Value.list (List.map Value.port members) ] in
          let joined = Array.make n false in
          let round = ref 0 in
          while Array.exists not joined && !round < max_rounds do
            List.iteri
              (fun i member ->
                if not joined.(i) then
                  match
                    Rpc.call ctx ~to_:member ~timeout:(Clock.ms 600) "members" payload
                  with
                  | Rpc.Reply ("members_ok", _) -> joined.(i) <- true
                  | Rpc.Reply _ | Rpc.Failure_msg _ | Rpc.Timeout -> ())
              members;
            incr round;
            if Array.exists not joined then Runtime.sleep ctx (Clock.ms 250)
          done);
      recover = None;
    }
  in
  Runtime.register_def world bootstrap;
  ignore (Runtime.create_guardian world ~at ~def_name ~args:[])
