(* Whole-program protocol analysis, pass 2: interprocedural summaries.

   Three summary families are computed to fixpoint over every function
   definition Proto_extract collected:

   - command sinks: the primitive transmission points are
     [Runtime.send], [Runtime.send_command] and [Rpc.call] (command =
     second positional argument: a name, or for [send_command] a typed
     command value, which names its command where it is made); any function that forwards one of its own parameters
     into a sink's command slot becomes a sink at that parameter
     (two_phase's local [reply], its announce chain, Sync_send.send,
     transfer's [finish], primordial's [reply_to], ...).

   - returned command names: the abstract string set a function returns
     directly ([rstr]) and as the first component of a returned tuple
     ([rtup]).  These resolve [Rpc.serve ~f] callbacks and the
     [let reply_command, args = apply ... in send ... reply_command]
     idiom.

   - mutable escape: functions whose result is (or passes through to) a
     raw mutable value — array literals, [ref], [Bytes.*] constructors —
     so a mutable payload laundered through helper calls into a send
     argument is still caught ([proto-escape]).

   The final walk, [collect_sends], resolves every send site in a unit to
   its abstract command-name set and reports interprocedural mutable
   escapes.  Everything is a syntactic over/under-approximation in the
   usual lint sense: unresolvable names degrade to [Dynamic] (recorded in
   the tables, never reported), and the committed proto baseline absorbs
   reviewed remainders. *)

open Parsetree
open Proto_extract

type slot = Spos of int | Slabel of string

let slot_equal a b =
  match (a, b) with
  | Spos i, Spos j -> Int.equal i j
  | Slabel x, Slabel y -> String.equal x y
  | _ -> false

type apply_site = {
  a_pair : string * string;
  a_args : (Asttypes.arg_label * expression) list;
  a_line : int;
}

type info = { i_fn : fn; i_unit : unit_info; i_applies : apply_site list }

type env = {
  fns : info list SMap.t;  (* fn_key -> definitions (merged on collision) *)
  commands : string SMap.t;  (* "Module.x" -> the name of typed command [x] *)
  mutable sinks : slot list SMap.t;
  mutable rstr : names SMap.t;
  mutable rtup : names SMap.t;
  mutable ret_mutable : SSet.t;
  mutable passthrough : int list SMap.t;
  mutable repliers : SSet.t;
}

(* ---- helpers over the environment ---- *)

let resolve ~own (m, f) = if String.equal m "" then own ^ "." ^ f else m ^ "." ^ f

let primitive_sinks =
  [ ("Runtime.send", [ Spos 1 ]); ("Runtime.send_command", [ Spos 1 ]); ("Rpc.call", [ Spos 1 ]) ]

let sink_slots env key =
  match List.assoc_opt key primitive_sinks with
  | Some slots -> slots
  | None -> Option.value (SMap.find_opt key env.sinks) ~default:[]

let arg_at slot args =
  match slot with Spos n -> positional n args | Slabel l -> labelled l args

let param_slot fn name =
  List.find_map
    (fun p ->
      if String.equal p.p_name name then
        Some (if String.equal p.p_label "" then Spos p.p_pos else Slabel p.p_label)
      else None)
    fn.fn_params

let names_at table key = Option.value (SMap.find_opt key table) ~default:(Known SSet.empty)
let rstr_of env key = names_at env.rstr key
let rtup_of env key = names_at env.rtup key

let names_equal a b =
  match (a, b) with
  | Dynamic, Dynamic -> true
  | Known a, Known b -> SSet.equal a b
  | _ -> false

(* ---- building the environment ---- *)

let collect_applies body =
  let acc = ref [] in
  let super = Ast_iterator.default_iterator in
  let expr self e =
    (match e.pexp_desc with
    | Pexp_apply (f, args) -> (
        match callee_pair f with
        | Some pair -> acc := { a_pair = pair; a_args = args; a_line = line_of e.pexp_loc } :: !acc
        | None -> ())
    | _ -> ());
    super.expr self e
  in
  let it = { super with expr } in
  it.expr it body;
  List.rev !acc

let iter_fns env f = SMap.iter (fun _ infos -> List.iter f infos) env.fns

(* Result positions of a body: every expression a function can return,
   flattened through let/sequence/branches.  A bare [function] body
   flattens through its cases, which is what a one-argument dispatch
   helper wants. *)
let rec tails e acc =
  match e.pexp_desc with
  | Pexp_let (_, _, body)
  | Pexp_sequence (_, body)
  | Pexp_constraint (body, _)
  | Pexp_open (_, body)
  | Pexp_letmodule (_, _, body) ->
      tails body acc
  | Pexp_ifthenelse (_, t, Some f) -> tails t (tails f acc)
  | Pexp_ifthenelse (_, t, None) -> tails t acc
  | Pexp_match (_, cases) | Pexp_try (_, cases) | Pexp_function cases ->
      List.fold_left (fun acc c -> tails c.pc_rhs acc) acc cases
  | _ -> e :: acc

let body_tails e = tails e []

(* ---- sink fixpoint ---- *)

let fixpoint_sinks env =
  let changed = ref true in
  while !changed do
    changed := false;
    iter_fns env (fun info ->
        let own = info.i_unit.u_module in
        List.iter
          (fun site ->
            let slots = sink_slots env (resolve ~own site.a_pair) in
            List.iter
              (fun slot ->
                match arg_at slot site.a_args with
                | Some { pexp_desc = Pexp_ident { txt = Longident.Lident x; _ }; _ } -> (
                    match param_slot info.i_fn x with
                    | Some pslot ->
                        let key = info.i_fn.fn_key in
                        let cur = Option.value (SMap.find_opt key env.sinks) ~default:[] in
                        if not (List.exists (slot_equal pslot) cur) then begin
                          env.sinks <- SMap.add key (pslot :: cur) env.sinks;
                          changed := true
                        end
                    | None -> ())
                | _ -> ())
              slots)
          info.i_applies)
  done

(* ---- returned-name fixpoint ---- *)

let first_comp_names env ~own e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_string (s, _, _)) -> known [ s ]
  | Pexp_apply (f, _) -> (
      match callee_pair f with Some p -> rstr_of env (resolve ~own p) | None -> Dynamic)
  | _ -> Dynamic

let fixpoint_returns env =
  let changed = ref true in
  while !changed do
    changed := false;
    iter_fns env (fun info ->
        let own = info.i_unit.u_module in
        let key = info.i_fn.fn_key in
        let str = ref (names_at env.rstr key) in
        let tup = ref (names_at env.rtup key) in
        List.iter
          (fun tail ->
            match tail.pexp_desc with
            | Pexp_constant (Pconst_string (s, _, _)) -> str := nunion !str (known [ s ])
            | Pexp_tuple (c :: _) -> tup := nunion !tup (first_comp_names env ~own c)
            | Pexp_apply (f, _) -> (
                match callee_pair f with
                | Some p ->
                    let gk = resolve ~own p in
                    str := nunion !str (rstr_of env gk);
                    tup := nunion !tup (rtup_of env gk)
                | None -> ())
            | _ -> ())
          (body_tails info.i_fn.fn_body);
        if not (names_equal !str (names_at env.rstr key)) then begin
          env.rstr <- SMap.add key !str env.rstr;
          changed := true
        end;
        if not (names_equal !tup (names_at env.rtup key)) then begin
          env.rtup <- SMap.add key !tup env.rtup;
          changed := true
        end)
  done

(* ---- mutable-escape fixpoint ---- *)

let is_mut_primitive (m, f) =
  match (m, f) with
  | "Bytes", ("create" | "make" | "of_string" | "copy" | "unsafe_of_string" | "sub" | "cat") ->
      true
  | "Array", ("make" | "create" | "init" | "copy" | "of_list" | "append" | "sub" | "concat") ->
      true
  | ("" | "Stdlib"), "ref" -> true
  | _ -> false

(* Is this expression (shallowly) a raw mutable value?  [Param i] means
   "whatever arrives as positional parameter i", feeding the passthrough
   relation. *)
let rec mut_shape env ~own params e =
  match e.pexp_desc with
  | Pexp_array _ -> `Mut
  | Pexp_ident { txt = Longident.Lident x; _ } -> (
      match
        List.find_map (fun p -> if String.equal p.p_name x then Some p.p_pos else None) params
      with
      | Some pos when pos >= 0 -> `Param pos
      | _ -> `Not)
  | Pexp_apply (f, args) -> (
      match callee_pair f with
      | Some pair when is_mut_primitive pair -> `Mut
      | Some pair ->
          let key = resolve ~own pair in
          if SSet.mem key env.ret_mutable then `Mut
          else
            let slots = Option.value (SMap.find_opt key env.passthrough) ~default:[] in
            if
              List.exists
                (fun i ->
                  match positional i args with
                  | Some a -> (
                      match mut_shape env ~own params a with `Mut -> true | _ -> false)
                  | None -> false)
                slots
            then `Mut
            else `Not
      | None -> `Not)
  | Pexp_constraint (inner, _) | Pexp_open (_, inner) -> mut_shape env ~own params inner
  | _ -> `Not

let fixpoint_mutable env =
  let changed = ref true in
  while !changed do
    changed := false;
    iter_fns env (fun info ->
        let own = info.i_unit.u_module in
        let key = info.i_fn.fn_key in
        List.iter
          (fun tail ->
            match mut_shape env ~own info.i_fn.fn_params tail with
            | `Mut ->
                if not (SSet.mem key env.ret_mutable) then begin
                  env.ret_mutable <- SSet.add key env.ret_mutable;
                  changed := true
                end
            | `Param i ->
                let cur = Option.value (SMap.find_opt key env.passthrough) ~default:[] in
                if not (List.mem i cur) then begin
                  env.passthrough <- SMap.add key (i :: cur) env.passthrough;
                  changed := true
                end
            | `Not -> ())
          (body_tails info.i_fn.fn_body))
  done

(* ---- repliers ---- *)

(* A replier discharges the current message's reply obligation: its body
   inspects [reply_to] and reaches a transmission sink (two_phase's local
   [reply], branch/transfer handle helpers).  [Rpc.serve]/[serve_always]
   are seeded: they always answer well-formed requests. *)
let compute_repliers env =
  let contains pred e =
    let found = ref false in
    let super = Ast_iterator.default_iterator in
    let expr self e =
      if pred e then found := true;
      if not !found then super.expr self e
    in
    let it = { super with expr } in
    it.expr it e;
    !found
  in
  iter_fns env (fun info ->
      let own = info.i_unit.u_module in
      let mentions_reply_to =
        contains
          (fun e ->
            match e.pexp_desc with
            | Pexp_field (_, lid) -> String.equal (lid_last lid.txt) "reply_to"
            | _ -> false)
          info.i_fn.fn_body
      in
      let reaches_sink =
        List.exists
          (fun site -> sink_slots env (resolve ~own site.a_pair) <> [])
          info.i_applies
      in
      if mentions_reply_to && reaches_sink then
        env.repliers <- SSet.add info.i_fn.fn_key env.repliers);
  env.repliers <- SSet.add "Rpc.serve" (SSet.add "Rpc.serve_always" env.repliers);
  (* Transitive closure: forwarding a request to a replier (directory-style
     delegation, regional's [forward]) discharges the obligation too. *)
  let changed = ref true in
  while !changed do
    changed := false;
    iter_fns env (fun info ->
        if not (SSet.mem info.i_fn.fn_key env.repliers) then
          let own = info.i_unit.u_module in
          if
            List.exists
              (fun site ->
                (match site.a_pair with _, ("serve" | "serve_always") -> true | _ -> false)
                || SSet.mem (resolve ~own site.a_pair) env.repliers)
              info.i_applies
          then begin
            env.repliers <- SSet.add info.i_fn.fn_key env.repliers;
            changed := true
          end)
  done

let is_replier env ~own pair =
  (match pair with _, ("serve" | "serve_always") -> true | _ -> false)
  || SSet.mem (resolve ~own pair) env.repliers

let build units =
  let fns =
    List.fold_left
      (fun acc u ->
        List.fold_left
          (fun acc fn ->
            let info = { i_fn = fn; i_unit = u; i_applies = collect_applies fn.fn_body } in
            SMap.update fn.fn_key
              (function Some l -> Some (info :: l) | None -> Some [ info ])
              acc)
          acc u.u_fns)
      SMap.empty units
  in
  let commands =
    List.fold_left
      (fun acc u ->
        List.fold_left
          (fun acc (x, name) -> SMap.add (u.u_module ^ "." ^ x) name acc)
          acc u.u_commands)
      (SMap.singleton "Command.failure" "failure")
      units
  in
  let env =
    {
      fns;
      commands;
      sinks = SMap.empty;
      rstr = SMap.empty;
      rtup = SMap.empty;
      ret_mutable = SSet.empty;
      passthrough = SMap.empty;
      repliers = SSet.empty;
    }
  in
  fixpoint_sinks env;
  fixpoint_returns env;
  fixpoint_mutable env;
  compute_repliers env;
  env

(* ---- send resolution + escape findings ---- *)

type send = {
  sd_line : int;
  sd_context : string;
  sd_via : string;
  sd_names : names;
}

(* Local bindings the walk tracks: the abstract command names an ident
   may hold, and whether it is bound to a raw mutable value. *)
type lentry = { le_names : names option; le_mut : bool }

(* A typed command value names its command. *)
let command_names env ~own e =
  match Option.bind (callee_pair e) (fun p -> SMap.find_opt (resolve ~own p) env.commands) with
  | Some name -> known [ name ]
  | None -> Dynamic

let rec eval_names env ~own lenv e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_string (s, _, _)) -> known [ s ]
  | Pexp_ident { txt = Longident.Lident x; _ } -> (
      match SMap.find_opt x lenv with
      | Some { le_names = Some n; _ } -> n
      | _ -> command_names env ~own e)
  | Pexp_ident _ -> command_names env ~own e
  | Pexp_apply (f, _) -> (
      match callee_pair f with Some p -> rstr_of env (resolve ~own p) | None -> Dynamic)
  | Pexp_ifthenelse (_, t, Some f) ->
      nunion (eval_names env ~own lenv t) (eval_names env ~own lenv f)
  | Pexp_ifthenelse (_, t, None) -> eval_names env ~own lenv t
  | Pexp_match (_, cases) | Pexp_try (_, cases) ->
      List.fold_left
        (fun acc c -> nunion acc (eval_names env ~own lenv c.pc_rhs))
        (Known SSet.empty) cases
  | Pexp_let (_, _, body) | Pexp_sequence (_, body) -> eval_names env ~own lenv body
  | Pexp_constraint (inner, _) | Pexp_open (_, inner) -> eval_names env ~own lenv inner
  | _ -> Dynamic

let is_mut_value env ~own lenv e =
  match mut_shape env ~own [] e with
  | `Mut -> true
  | _ -> (
      match e.pexp_desc with
      | Pexp_ident { txt = Longident.Lident x; _ } -> (
          match SMap.find_opt x lenv with Some { le_mut = true; _ } -> true | _ -> false)
      | _ -> false)

(* Escape scan over a send argument: report mutables that arrive through a
   call or a binding.  Direct mutable literals in the argument are Scan's
   per-file [mutable-payload] rule; flagging them again here would
   double-report, so only summarized sources count. *)
let escape_token env ~own lenv arg =
  let verdict = ref None in
  let note t = if !verdict = None then verdict := Some t in
  let super = Ast_iterator.default_iterator in
  let expr self e =
    match e.pexp_desc with
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Longident.Lident "!"; _ }; _ }, _) ->
        (* [!r] transmits the ref's contents, not the ref; the common
           [Value.int !counter] idiom is fine *)
        ()
    | Pexp_apply (f, args) ->
        (match callee_pair f with
        | Some pair when not (is_mut_primitive pair) ->
            let key = resolve ~own pair in
            if SSet.mem key env.ret_mutable then note (pair_string pair)
            else
              let slots = Option.value (SMap.find_opt key env.passthrough) ~default:[] in
              if
                List.exists
                  (fun i ->
                    match positional i args with
                    | Some a -> is_mut_value env ~own lenv a
                    | None -> false)
                  slots
              then note (pair_string pair)
        | _ -> ());
        super.expr self e
    | Pexp_ident { txt = Longident.Lident x; _ } -> (
        match SMap.find_opt x lenv with Some { le_mut = true; _ } -> note x | _ -> ())
    | _ -> super.expr self e
  in
  let it = { super with expr } in
  it.expr it arg;
  !verdict

(* Command names returned by an [Rpc.serve ~f] callback. *)
let callback_reply_names env ~own lenv fexpr =
  match fexpr.pexp_desc with
  | Pexp_ident _ -> (
      match callee_pair fexpr with Some p -> rtup_of env (resolve ~own p) | None -> Dynamic)
  | _ ->
      let _, body = decompose_fun fexpr in
      List.fold_left
        (fun acc tail ->
          match tail.pexp_desc with
          | Pexp_tuple (c :: _) -> nunion acc (first_comp_names env ~own c)
          | Pexp_apply (f, _) -> (
              match callee_pair f with
              | Some p -> nunion acc (rtup_of env (resolve ~own p))
              | None -> Dynamic)
          | _ -> nunion acc (eval_names env ~own lenv tail))
        (Known SSet.empty) (body_tails body)

let collect_sends env u =
  match u.u_structure with
  | Error _ -> ([], [])
  | Ok structure ->
      let own = u.u_module in
      let sends = ref [] in
      let escapes = ref [] in
      let context = ref "-" in
      let lenv = ref SMap.empty in
      let super = Ast_iterator.default_iterator in
      let bind_pattern self pat rhs =
        self.Ast_iterator.expr self rhs;
        match (strip pat).ppat_desc with
        | Ppat_var { txt = x; _ } ->
            lenv :=
              SMap.add x
                {
                  le_names = Some (eval_names env ~own !lenv rhs);
                  le_mut = is_mut_value env ~own !lenv rhs;
                }
                !lenv
        | Ppat_tuple comps -> (
            (* [let command, args = apply ... in]: the first component
               holds the callee's returned-tuple command names. *)
            match (comps, rhs.pexp_desc) with
            | { ppat_desc = Ppat_var { txt = x; _ }; _ } :: _, Pexp_apply (f, _) -> (
                match callee_pair f with
                | Some p ->
                    lenv :=
                      SMap.add x
                        { le_names = Some (rtup_of env (resolve ~own p)); le_mut = false }
                        !lenv
                | None -> ())
            | { ppat_desc = Ppat_var { txt = x; _ }; _ } :: _, Pexp_tuple (c :: _) ->
                lenv :=
                  SMap.add x
                    {
                      le_names = Some (eval_names env ~own !lenv c);
                      le_mut = is_mut_value env ~own !lenv c;
                    }
                    !lenv
            | _ -> ())
        | _ -> ()
      in
      let expr self e =
        match e.pexp_desc with
        | Pexp_let (_, vbs, body) ->
            let saved = !lenv in
            List.iter (fun vb -> bind_pattern self vb.pvb_pat vb.pvb_expr) vbs;
            self.Ast_iterator.expr self body;
            lenv := saved
        | Pexp_fun (Asttypes.Optional _, Some default, pat, body) ->
            (* [?(command = "ping")]: the default participates in the
               abstract evaluation of the parameter. *)
            self.Ast_iterator.expr self default;
            (match binding_name pat with
            | Some x ->
                lenv :=
                  SMap.add x
                    { le_names = Some (eval_names env ~own !lenv default); le_mut = false }
                    !lenv
            | None -> ());
            self.Ast_iterator.expr self body
        | Pexp_apply (f, args) ->
            (match callee_pair f with
            | Some pair -> (
                let key = resolve ~own pair in
                (match sink_slots env key with
                | [] -> ()
                | slots ->
                    let names =
                      List.fold_left
                        (fun acc slot ->
                          match arg_at slot args with
                          | Some a -> nunion acc (eval_names env ~own !lenv a)
                          | None -> Dynamic)
                        (Known SSet.empty) slots
                    in
                    sends :=
                      {
                        sd_line = line_of e.pexp_loc;
                        sd_context = !context;
                        sd_via = pair_string pair;
                        sd_names = names;
                      }
                      :: !sends;
                    List.iter
                      (fun (_, a) ->
                        match escape_token env ~own !lenv a with
                        | Some token ->
                            escapes :=
                              Finding.v ~rule:"proto-escape" ~file:u.u_path
                                ~line:(line_of a.pexp_loc) ~col:0 ~context:!context ~token
                                (Printf.sprintf
                                   "mutable value from %s reaches a %s payload through helper \
                                    calls; transmit an external rep built with Value/Codec"
                                   token (pair_string pair))
                              :: !escapes
                        | None -> ())
                      args);
                match pair with
                | _, ("serve" | "serve_always") -> (
                    match labelled "f" args with
                    | Some fexpr ->
                        sends :=
                          {
                            sd_line = line_of e.pexp_loc;
                            sd_context = !context;
                            sd_via = pair_string pair;
                            sd_names = callback_reply_names env ~own !lenv fexpr;
                          }
                          :: !sends
                    | None -> ())
                | _ -> ())
            | None -> ());
            super.expr self e
        | _ -> super.expr self e
      in
      let structure_item self item =
        match item.pstr_desc with
        | Pstr_value (_, bindings) ->
            List.iter
              (fun vb ->
                let saved_ctx = !context in
                let saved_env = !lenv in
                (match binding_name vb.pvb_pat with Some name -> context := name | None -> ());
                self.Ast_iterator.value_binding self vb;
                context := saved_ctx;
                lenv := saved_env)
              bindings
        | _ -> super.structure_item self item
      in
      let it = { super with expr; structure_item } in
      it.structure it structure;
      (List.rev !sends, List.rev !escapes)
