(* The shard-runtime module: the ONLY place in the tree allowed to touch
   OCaml's domain primitives (Domain, Atomic, Mutex, Condition) — the
   determinism lint enforces that.  Everything above this layer keeps the
   single-writer discipline: a shard's state is touched only by the domain
   currently running that shard, and shards hand data to each other only
   through their owner's sealed outbox exchange at epoch barriers.

   The pool is a classic generation-counted two-phase barrier: the caller
   publishes a round under the mutex (bumping [round_no]), workers run
   their shard's work outside the lock, then report arrival; the caller
   runs shard 0 itself and blocks until every worker has arrived.  The
   mutex acquisitions order each worker's writes before the caller's
   barrier-side reads, so when [round] returns, everything the shards did
   this round happens-before the caller's exchange code. *)

type pool = {
  shards : int;
  mutable work : int -> unit;
  m : Mutex.t;
  start : Condition.t;
  finished : Condition.t;
  mutable round_no : int;
  mutable arrived : int;
  mutable stop : bool;
  mutable domains : unit Domain.t array;
}

let worker p i =
  let last = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock p.m;
    while (not p.stop) && p.round_no = !last do
      Condition.wait p.start p.m
    done;
    if p.stop then begin
      Mutex.unlock p.m;
      running := false
    end
    else begin
      last := p.round_no;
      let work = p.work in
      Mutex.unlock p.m;
      work i;
      Mutex.lock p.m;
      p.arrived <- p.arrived + 1;
      if p.arrived = p.shards - 1 then Condition.signal p.finished;
      Mutex.unlock p.m
    end
  done

let pool ~shards =
  if shards < 1 then invalid_arg "Exec.pool: shards must be positive";
  let p =
    {
      shards;
      work = ignore;
      m = Mutex.create ();
      start = Condition.create ();
      finished = Condition.create ();
      round_no = 0;
      arrived = 0;
      stop = false;
      domains = [||];
    }
  in
  p.domains <- Array.init (shards - 1) (fun i -> Domain.spawn (fun () -> worker p (i + 1)));
  p

let round p work =
  if p.shards = 1 then work 0
  else begin
    Mutex.lock p.m;
    p.work <- work;
    p.arrived <- 0;
    p.round_no <- p.round_no + 1;
    Condition.broadcast p.start;
    Mutex.unlock p.m;
    work 0;
    Mutex.lock p.m;
    while p.arrived < p.shards - 1 do
      Condition.wait p.finished p.m
    done;
    Mutex.unlock p.m
  end

let shutdown p =
  if Array.length p.domains > 0 then begin
    Mutex.lock p.m;
    p.stop <- true;
    Condition.broadcast p.start;
    Mutex.unlock p.m;
    Array.iter Domain.join p.domains;
    p.domains <- [||]
  end

let with_pool ~shards f =
  let p = pool ~shards in
  Fun.protect ~finally:(fun () -> shutdown p) (fun () -> f p)

(* ---- domain-local state ---- *)

type 'a domain_local = 'a Domain.DLS.key

let domain_local init = Domain.DLS.new_key init
let local_get key = Domain.DLS.get key
let local_set key v = Domain.DLS.set key v
