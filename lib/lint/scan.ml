(* Per-file syntactic rules over the compiler-libs parsetree.

   The pass is deliberately untyped: it runs on the bare
   [Parse.implementation] that [Proto_extract.load] made, with no type
   environment, so every rule is a syntactic approximation with the
   committed baseline absorbing the benign remainder (e.g. a
   [Hashtbl.fold] that computes a commutative sum).  What the approximation
   buys is speed (the whole tree lints in well under a second) and zero
   coupling to build order. *)

open Parsetree

type ctx = {
  file : string;  (* root-relative path *)
  own_dir : string option;  (* lib/<dir>/ files get layer restrictions *)
  findings : Finding.t list ref;
  context : string list ref;  (* enclosing binding names, innermost first *)
  sort_depth : int ref;  (* > 0 inside an argument of a sort application *)
  binding_depth : int ref;  (* > 0 inside a value binding's expression *)
  aliases : (string, string list) Hashtbl.t;
      (* [module U = Unix] renames, resolved before every longident check *)
}

let last2 comps =
  match List.rev comps with
  | last :: prev :: _ -> (prev, last)
  | [ last ] -> ("", last)
  | [] -> ("", "")

let is_sort (m, f) =
  (match m with "List" | "ListLabels" | "Array" | "ArrayLabels" -> true | _ -> false)
  && match f with "sort" | "stable_sort" | "fast_sort" | "sort_uniq" -> true | _ -> false

(* Hash-table-shaped containers whose iteration order is seed-dependent.
   [Store] is the stable store (hashtable-backed; use [Store.to_alist] for a
   deterministic order), [Pair_tbl] is Acl's Hashtbl.Make instance and
   [Int_tbl] the runtime's and network's. *)
let is_unordered (m, f) =
  (match m with "Hashtbl" | "MoreLabels" | "Store" | "Pair_tbl" | "Int_tbl" -> true | _ -> false)
  && match f with "fold" | "iter" | "to_seq" | "to_seq_keys" | "to_seq_values" -> true | _ -> false

(* Domain-level concurrency primitives.  The sharded runtime's determinism
   argument rests on single-writer shards whose only synchronization is the
   epoch-barrier exchange inside lib/sim/exec.ml; any other use of these
   modules creates cross-domain state the argument cannot see. *)
let domain_primitive_modules = [ "Domain"; "Atomic"; "Mutex"; "Condition" ]

let shard_runtime_file = "lib/sim/exec.ml"

(* The disk-fault injector couples a fault spec to its own RNG stream;
   guardian code may carry a [Disk.spec] around freely, but only the stable
   layer may turn one into a live injector handle — anyone else drawing
   faults would perturb RNG streams and bypass the store's salvage and
   quarantine accounting. *)
let disk_injector_dir = "lib/stable/"

let in_stable_layer file =
  String.length file >= String.length disk_injector_dir
  && String.equal (String.sub file 0 (String.length disk_injector_dir)) disk_injector_dir

let wall_clock_idents =
  [
    ("Unix", "gettimeofday");
    ("Unix", "time");
    ("Unix", "gmtime");
    ("Unix", "localtime");
    ("Sys", "time");
    ("Random", "self_init");
  ]

let is_send (m, f) =
  String.equal f "send" || String.equal f "reply" || (String.equal m "Rpc" && String.equal f "call")

let is_compare_op (_, f) =
  match f with "=" | "<>" | "<" | ">" | "<=" | ">=" -> true | _ -> false

let pos_of loc =
  let p = loc.Location.loc_start in
  (p.Lexing.pos_lnum, p.Lexing.pos_cnum - p.Lexing.pos_bol)

let report ctx ~loc ~rule ~token message =
  let line, col = pos_of loc in
  let context =
    match !(ctx.context) with [] -> "-" | names -> String.concat "." (List.rev names)
  in
  ctx.findings := Finding.v ~rule ~file:ctx.file ~line ~col ~context ~token message :: !(ctx.findings)

let with_context ctx name f =
  ctx.context := name :: !(ctx.context);
  Fun.protect ~finally:(fun () -> ctx.context := List.tl !(ctx.context)) f

(* ---- longident checks ---- *)

(* Rewrite the head of a path through the file's module aliases, so
   [module U = Unix ... U.time] is checked as [Unix.time].  Scoping is
   coarse (one table per file, no shadowing) — fine for the lint tier,
   where a false resolution just means a baselined finding. *)
let resolve_alias ctx comps =
  let rec go comps depth =
    match comps with
    | head :: rest when depth < 5 -> (
        match Hashtbl.find_opt ctx.aliases head with
        | Some target -> go (target @ rest) (depth + 1)
        | None -> comps)
    | _ -> comps
  in
  go comps 0

let check_lid ctx (lid : Longident.t Location.loc) =
  let comps = resolve_alias ctx (Longident.flatten lid.txt) in
  let loc = lid.loc in
  let pair = last2 comps in
  (match comps with
  | head :: _ when String.length head > 4 && String.equal (String.sub head 0 4) "Dcp_" -> (
      match (ctx.own_dir, Layers.dir_of_lib_name (String.lowercase_ascii head)) with
      | Some own, Some ref_dir when not (String.equal own ref_dir) -> (
          match (Layers.rank_of_dir own, Layers.rank_of_dir ref_dir) with
          | Some own_rank, Some ref_rank when ref_rank >= own_rank ->
              if Layers.is_guardian own && Layers.is_guardian ref_dir then
                report ctx ~loc ~rule:"guardian-isolation" ~token:head
                  (Printf.sprintf
                     "guardian %s may not name guardian module %s directly; go through \
                      Port/Message/Rpc"
                     own head)
              else
                report ctx ~loc ~rule:"layer-dag" ~token:head
                  (Printf.sprintf "layer back-edge: lib/%s (layer %d) references %s (layer %d)"
                     own own_rank head ref_rank)
          | Some _, Some _ -> ()
          | _, None ->
              report ctx ~loc ~rule:"layer-dag" ~token:head
                (Printf.sprintf "reference to %s, which has no layer" head)
          | None, _ -> ())
      | _ -> ())
  | _ -> ());
  (* module position only: a plain constructor named [Obj] is not the
     unsafe module *)
  if List.exists (String.equal "Obj") (match List.rev comps with [] -> [] | _ :: prefix -> prefix)
  then
    report ctx ~loc ~rule:"obj-magic" ~token:(String.concat "." comps)
      (Printf.sprintf "%s defeats the type system and the wire discipline" (String.concat "." comps));
  (if not (String.equal ctx.file shard_runtime_file) then
     (* module position only (there must be a component after it), with an
        optional [Stdlib.] prefix *)
     let in_module_position =
       match comps with
       | "Stdlib" :: head :: _ :: _ | head :: _ :: _ -> List.mem head domain_primitive_modules
       | _ -> false
     in
     if in_module_position then
       report ctx ~loc ~rule:"domain-primitives" ~token:(String.concat "." comps)
         (Printf.sprintf
            "%s is a domain-level concurrency primitive; only the shard runtime \
             (lib/sim/exec.ml) may synchronize domains — shard state is single-writer \
             and crosses boundaries only at epoch barriers"
            (String.concat "." comps)));
  (match pair with
  | "Disk", "create" when not (in_stable_layer ctx.file) ->
      report ctx ~loc ~rule:"disk-faults" ~token:(String.concat "." comps)
        "only lib/stable may construct a disk-fault injector handle; pass the Disk.spec \
         to Store.create and let the store build its own injector"
  | _ -> ());
  if List.mem pair wall_clock_idents then
    report ctx ~loc ~rule:"wall-clock" ~token:(String.concat "." comps)
      (Printf.sprintf
         "%s is wall-clock/nondeterministic state; use the simulated Clock or Dcp_rng"
         (String.concat "." comps));
  match comps with
  | [ "compare" ] | [ "Stdlib"; "compare" ] ->
      report ctx ~loc ~rule:"poly-compare" ~token:"compare"
        "polymorphic compare; use a typed comparison (String.compare, Int.compare, a \
         per-module compare)"
  | [ "Hashtbl"; "hash" ] | [ "Stdlib"; "Hashtbl"; "hash" ] ->
      report ctx ~loc ~rule:"poly-compare" ~token:"Hashtbl.hash"
        "polymorphic hash; write a typed hash for the key type"
  | _ -> ()

(* ---- expression helpers ---- *)

let rec callee_lid e =
  match e.pexp_desc with
  | Pexp_ident lid -> Some lid
  | Pexp_apply (f, _) -> callee_lid f
  | _ -> None

let callee_pair e =
  match callee_lid e with Some lid -> Some (last2 (Longident.flatten lid.txt)) | None -> None

let expr_contains pred e =
  let found = ref false in
  let super = Ast_iterator.default_iterator in
  let expr self e =
    if pred e then found := true;
    if not !found then super.expr self e
  in
  let it = { super with expr } in
  it.expr it e;
  !found

(* A comparison operand that is (or contains) a whole [Port.name] result.
   Projections out of the abstract name ([(Port.name p).Port_name.index])
   compare a concrete component and are fine, so field accesses are not
   descended into. *)
let mentions_port_name e =
  let found = ref false in
  let super = Ast_iterator.default_iterator in
  let expr self e =
    match e.pexp_desc with
    | Pexp_field _ -> ()
    | Pexp_ident { txt; _ } -> (
        match last2 (Longident.flatten txt) with "Port", "name" -> found := true | _ -> ())
    | _ -> if not !found then super.expr self e
  in
  let it = { super with expr } in
  it.expr it e;
  !found

(* A raw mutable value syntactically reaching a transmission argument:
   anything whose identity the receiver cannot share.  Everything sent must
   go through Value/Codec external reps. *)
let mutable_payload e =
  let verdict = ref None in
  let note token = if !verdict = None then verdict := Some token in
  ignore
    (expr_contains
       (fun e ->
         (match e.pexp_desc with
         | Pexp_array _ -> note "array-literal"
         | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Longident.Lident "ref"; _ }; _ }, _) ->
             note "ref"
         | Pexp_ident { txt; _ } -> (
             match last2 (Longident.flatten txt) with
             | "Bytes", ("create" | "make" | "of_string" | "copy" | "unsafe_of_string") ->
                 note "Bytes"
             | _ -> ())
         | _ -> ());
         false)
       e);
  !verdict

let binding_name pat =
  let rec go p =
    match p.ppat_desc with
    | Ppat_var { txt; _ } -> Some txt
    | Ppat_constraint (inner, _) -> go inner
    | _ -> None
  in
  go pat

(* The mutable containers a module-level binding keeps hold of: those
   allocated in its result — directly, or inside a constructor, tuple,
   record, branch or lazy — and those bound by a local [let] that the rest
   of the expression (typically a closure) still names.  A temporary used
   while computing a constant table is not kept, and a function body
   allocates per call, so neither counts. *)
let allocation ctx e =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident lid; _ }, _) -> (
      match resolve_alias ctx (Longident.flatten lid.txt) with
      | [ "ref" ] | [ "Stdlib"; "ref" ] -> Some "ref"
      | comps -> (
          match last2 comps with
          | (("Hashtbl" | "Queue" | "Stack" | "Buffer") as m), (("create" | "copy" | "of_seq") as f) ->
              Some (m ^ "." ^ f)
          | _ -> None))
  | _ -> None

let rec retained_allocations ctx e =
  let go = retained_allocations ctx in
  let cases cs = List.concat_map (fun c -> go c.pc_rhs) cs in
  match allocation ctx e with
  | Some token -> [ (token, e.pexp_loc) ]
  | None -> (
      match e.pexp_desc with
      | Pexp_let (_, vbs, body) ->
          let named name =
            expr_contains
              (fun e ->
                match e.pexp_desc with
                | Pexp_ident { txt = Longident.Lident n; _ } -> String.equal n name
                | _ -> false)
              body
          in
          List.concat_map
            (fun vb ->
              match binding_name vb.pvb_pat with
              | Some name when named name -> go vb.pvb_expr
              | Some _ | None -> [])
            vbs
          @ go body
      | Pexp_sequence (_, e)
      | Pexp_constraint (e, _)
      | Pexp_coerce (e, _, _)
      | Pexp_open (_, e)
      | Pexp_letmodule (_, _, e)
      | Pexp_lazy e
      | Pexp_construct (_, Some e)
      | Pexp_variant (_, Some e) ->
          go e
      | Pexp_tuple es | Pexp_array es -> List.concat_map go es
      | Pexp_record (fields, _) -> List.concat_map (fun (_, e) -> go e) fields
      | Pexp_ifthenelse (_, a, b) -> go a @ Option.fold ~none:[] ~some:go b
      | Pexp_match (_, cs) -> cases cs
      | Pexp_try (body, cs) -> go body @ cases cs
      | _ -> [])

(* ---- the iterator ---- *)

let iterator ctx =
  let super = Ast_iterator.default_iterator in
  let visit_args self args = List.iter (fun (_, a) -> self.Ast_iterator.expr self a) args in
  let rec handle_apply self f args loc =
    let pair = callee_pair f in
    match (pair, args) with
    | Some (_, "|>"), [ (_, lhs); (_, rhs) ] when Option.fold ~none:false ~some:is_sort (callee_pair rhs)
      ->
        self.Ast_iterator.expr self rhs;
        incr ctx.sort_depth;
        Fun.protect
          ~finally:(fun () -> decr ctx.sort_depth)
          (fun () -> self.Ast_iterator.expr self lhs)
    | Some (_, "@@"), [ (_, lhs); (_, rhs) ] when Option.fold ~none:false ~some:is_sort (callee_pair lhs)
      ->
        self.Ast_iterator.expr self lhs;
        incr ctx.sort_depth;
        Fun.protect
          ~finally:(fun () -> decr ctx.sort_depth)
          (fun () -> self.Ast_iterator.expr self rhs)
    | Some p, _ when is_sort p ->
        self.Ast_iterator.expr self f;
        incr ctx.sort_depth;
        Fun.protect ~finally:(fun () -> decr ctx.sort_depth) (fun () -> visit_args self args)
    | Some p, _ ->
        let token = String.concat "." [ fst p; snd p ] in
        if is_unordered p && !(ctx.sort_depth) = 0 then
          report ctx ~loc ~rule:"hashtbl-order" ~token
            (Printf.sprintf
               "%s iterates in hash order; sort the collected result (or use Store.to_alist) \
                before it can reach wire encoding, oracle verdicts, or trace output"
               token);
        if is_send p then
          List.iter
            (fun (_, a) ->
              match mutable_payload a with
              | Some mtoken ->
                  report ctx ~loc:a.pexp_loc ~rule:"mutable-payload" ~token:mtoken
                    (Printf.sprintf
                       "raw mutable value (%s) in a %s argument; transmit an external rep \
                        built with Value/Codec instead"
                       mtoken token)
              | None -> ())
            args;
        if is_compare_op p && List.exists (fun (_, a) -> mentions_port_name a) args then
          report ctx ~loc ~rule:"poly-compare" ~token:"Port.name"
            (Printf.sprintf "polymorphic %s on port names; use Port_name.equal/compare" (snd p));
        self.Ast_iterator.expr self f;
        visit_args self args
    | None, _ -> (
        (* the callee is itself an expression (e.g. a pipe chain target) *)
        match f.pexp_desc with
        | Pexp_apply (inner_f, inner_args) ->
            handle_apply self inner_f inner_args f.pexp_loc;
            visit_args self args
        | _ ->
            self.Ast_iterator.expr self f;
            visit_args self args)
  in
  let register_alias name mexpr =
    match mexpr.pmod_desc with
    | Pmod_ident lid -> Hashtbl.replace ctx.aliases name (Longident.flatten lid.txt)
    | _ -> ()
  in
  let expr self e =
    match e.pexp_desc with
    | Pexp_ident lid -> check_lid ctx lid
    | Pexp_apply (f, args) -> handle_apply self f args e.pexp_loc
    | Pexp_letmodule ({ txt = Some name; _ }, mexpr, _) ->
        register_alias name mexpr;
        super.expr self e
    | Pexp_construct (lid, _) | Pexp_field (_, lid) | Pexp_setfield (_, lid, _) | Pexp_new lid ->
        check_lid ctx lid;
        super.expr self e
    | Pexp_record (fields, _) ->
        List.iter (fun (lid, _) -> check_lid ctx lid) fields;
        super.expr self e
    | _ -> super.expr self e
  in
  let typ self t =
    (match t.ptyp_desc with
    | Ptyp_constr (lid, _) | Ptyp_class (lid, _) -> check_lid ctx lid
    | _ -> ());
    super.typ self t
  in
  let pat self p =
    (match p.ppat_desc with
    | Ppat_construct (lid, _) | Ppat_type lid -> check_lid ctx lid
    | Ppat_record (fields, _) -> List.iter (fun (lid, _) -> check_lid ctx lid) fields
    | _ -> ());
    super.pat self p
  in
  let module_expr self m =
    (match m.pmod_desc with Pmod_ident lid -> check_lid ctx lid | _ -> ());
    super.module_expr self m
  in
  let structure_item self item =
    match item.pstr_desc with
    | Pstr_value (_, bindings) ->
        let visit vb =
          incr ctx.binding_depth;
          Fun.protect
            ~finally:(fun () -> decr ctx.binding_depth)
            (fun () -> self.Ast_iterator.value_binding self vb)
        in
        List.iter
          (fun vb ->
            match binding_name vb.pvb_pat with
            | Some name ->
                with_context ctx name (fun () ->
                    (* module level: not inside another binding's expression *)
                    if !(ctx.binding_depth) = 0 then
                      List.iter
                        (fun (token, loc) ->
                          report ctx ~loc ~rule:"global-state" ~token
                            (Printf.sprintf
                               "module-level %s allocates %s when the module is initialised; \
                                every world in the process shares it — keep the state in the \
                                world (Runtime, the guardian's ctx)"
                               name token))
                        (retained_allocations ctx vb.pvb_expr);
                    visit vb)
            | None -> visit vb)
          bindings
    | Pstr_module ({ pmb_name = { txt = Some name; _ }; _ } as mb) ->
        register_alias name mb.pmb_expr;
        with_context ctx name (fun () -> super.structure_item self item)
    | _ -> super.structure_item self item
  in
  { super with expr; typ; pat; module_expr; structure_item }

let file (u : Proto_extract.unit_info) =
  let ctx =
    {
      file = u.u_path;
      own_dir = u.u_lib;
      findings = ref [];
      context = ref [];
      sort_depth = ref 0;
      binding_depth = ref 0;
      aliases = Hashtbl.create 8;
    }
  in
  (try
     match u.u_structure with
     | Ok structure ->
         let it = iterator ctx in
         it.structure it structure
     | Error exn -> raise exn
   with exn ->
     let message =
       match exn with
       | Syntaxerr.Error _ -> "syntax error"
       | exn -> Printexc.to_string exn
     in
     report ctx ~loc:Location.none ~rule:"parse-error" ~token:"parse"
       (Printf.sprintf "could not parse: %s" message));
  List.sort Finding.order !(ctx.findings)
