type t = {
  rule : string;
  file : string;
  line : int;
  col : int;
  context : string;
  token : string;
  message : string;
  mutable baselined : bool;
}

let v ~rule ~file ~line ~col ~context ~token message =
  { rule; file; line; col; context; token; message; baselined = false }

(* The baseline key deliberately omits line/column so grandfathered findings
   survive unrelated edits to the same file; a new offending call in a
   different binding (or a different callee in the same binding) still gets a
   fresh key. *)
let key f = Printf.sprintf "%s %s %s/%s" f.rule f.file f.context f.token

let order a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c
      else
        let c = String.compare a.rule b.rule in
        if c <> 0 then c else String.compare a.message b.message

let pp ppf f =
  Format.fprintf ppf "%s:%d:%d: [%s] %s" f.file f.line f.col f.rule f.message

let to_string f = Format.asprintf "%a" pp f

type family = Isolation | Transmittability | Determinism | Hygiene | Protocol

let family_name = function
  | Isolation -> "isolation"
  | Transmittability -> "transmittability"
  | Determinism -> "determinism"
  | Hygiene -> "hygiene"
  | Protocol -> "protocol"

(* Every rule the pass can emit, per-file or whole-program, with its family:
   the report lists them so downstream tooling need not hardcode the set. *)
let rules =
  [
    ("layer-dag", Isolation);
    ("guardian-isolation", Isolation);
    ("mutable-payload", Transmittability);
    ("wall-clock", Determinism);
    ("hashtbl-order", Determinism);
    ("domain-primitives", Determinism);
    ("disk-faults", Determinism);
    ("global-state", Determinism);
    ("poly-compare", Hygiene);
    ("obj-magic", Hygiene);
    ("mli-missing", Hygiene);
    ("parse-error", Hygiene);
    ("proto-dead-letter", Protocol);
    ("proto-unreachable-handler", Protocol);
    ("proto-reply-obligation", Protocol);
    ("proto-escape", Transmittability);
    ("proto-unused-export", Hygiene);
  ]

(* One paragraph per rule, printed by [dcp_lint --explain <rule>]. *)
let explanations =
  [
    ( "layer-dag",
      "Modules may only depend downward in the layer DAG declared by lib/*/dune \
       (core < net < stable < sim < primitives < applications).  An upward or \
       sideways reference couples layers the architecture keeps separate and \
       usually means simulation state is leaking into a guardian." );
    ( "guardian-isolation",
      "Guardians share nothing: a guardian module must not reach into another \
       guardian's state directly.  All cross-guardian interaction goes through \
       messages (Runtime.send / Rpc.call), which is what makes node crashes and \
       network faults injectable." );
    ( "mutable-payload",
      "A send/reply argument contains a raw mutable value (ref, array, Bytes) in \
       the same expression.  Messages must carry external representations built \
       with Value/Codec; sharing a mutable value across guardians breaks the \
       no-shared-memory model and makes runs schedule-dependent." );
    ( "wall-clock",
      "Unix.time, Unix.gettimeofday and friends read the host clock, which makes \
       simulated runs irreproducible.  Use the simulated Clock (world time) or \
       Dcp_rng for randomness; the rule resolves module aliases (module U = \
       Unix), so hiding the access behind a rename does not help." );
    ( "hashtbl-order",
      "Hashtbl.fold/iter enumerate in bucket order, which depends on insertion \
       history and the hash seed, so any value derived from it is \
       nondeterministic.  Fold into a list and sort, or use Store.to_alist / a \
       Map, before the result can influence messages or metrics." );
    ( "domain-primitives",
      "Domain, Atomic and Mutex are only allowed in lib/sim/exec.ml, the one \
       module that implements the sharded engine's barrier.  Anywhere else they \
       introduce real parallelism the deterministic scheduler cannot replay." );
    ( "disk-faults",
      "Disk fault-injection handles are constructible only inside lib/stable; \
       other layers must take a Disk.t as configuration.  Constructing injectors \
       elsewhere would let tests bypass the stable-storage write-ahead \
       discipline." );
    ( "global-state",
      "A named module-level binding allocates a ref, Hashtbl, Queue, Stack or \
       Buffer when its module is initialised (including the closure form \
       [let f = let n = ref 0 in fun ...]).  That state outlives every world: a \
       second world built in the same process starts from what the first left \
       behind, so a run stops being a function of (seed, shards).  Keep the \
       state in the world and reach it through the ctx, e.g. \
       Runtime.ctx_mint_id for ids.  Function bodies and [let () = ...] \
       program bodies are exempt: they allocate per call or per run." );
    ( "poly-compare",
      "Polymorphic compare/hash walks arbitrary structure: it is slow, breaks on \
       functional values, and orders abstract types by representation.  Use the \
       typed comparison for the key type (String.compare, Int.compare, \
       Port_name.equal, a per-module compare)." );
    ( "obj-magic",
      "Obj.magic defeats the type system; there is no sanctioned use in this \
       codebase." );
    ( "mli-missing",
      "Every library module carries an interface file; an .ml without an .mli \
       exports its whole namespace and tends to grow accidental dependents." );
    ( "parse-error",
      "The file failed to parse with the compiler-libs parser, so no other rule \
       could run on it.  Usually a syntax error or an unsupported extension \
       point." );
    ( "proto-dead-letter",
      "A send site transmits a statically-known message name that no guardian in \
       the whole program handles or declares: the message can only ever be \
       dropped by the receiver's dispatch fall-through.  Either the name is \
       misspelled, the handler was removed, or the send is dead code.  Names the \
       analysis cannot resolve to literals are recorded as dynamic, never \
       reported." );
    ( "proto-unreachable-handler",
      "A guardian dispatches on (or declares) a message name that no send site \
       in the whole program produces, so the handler arm is unreachable from \
       inside the repo.  Warning tier: externally-driven protocols and \
       test-only senders legitimately trip it, which is what the proto baseline \
       is for." );
    ( "proto-reply-obligation",
      "An RPC handler's message carries a reply port, but on at least one \
       syntactic control-flow path the handler neither replies nor explicitly \
       discards the port (matching it against None is the sanctioned discard).  \
       The caller of Rpc.call will wait out its timeout for every request that \
       takes this path — the classic two_phase/replica gap this analyzer was \
       built to catch." );
    ( "proto-escape",
      "Interprocedural version of mutable-payload: a helper function returns (or \
       passes through) a ref/array/Bytes value and the result flows into a \
       send/reply payload through one or more calls.  The per-file rule only \
       sees literal constructors in the argument expression; this one uses \
       function summaries, so laundering the allocation through a helper no \
       longer hides it." );
    ( "proto-unused-export",
      "A val in a lib/ interface that no other unit in lib/, bin/, bench/, \
       examples/ or test/ names.  A guardian shows the world only its ports \
       (paper §2, §3.2); a module's interface should likewise list only what \
       some other unit uses, so delete the val or drop it from the .mli.  Uses \
       match on (module, name) after resolving module aliases; opens and \
       includes count for every name the unit mentions, and functor arguments \
       and first-class modules for every val, so the rule errs towards \
       silence.  A val used only from test/ is not reported; the report's \
       exports block counts it as test_only." );
  ]

let explain rule = List.assoc_opt rule explanations
