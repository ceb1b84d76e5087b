(* Whole-program protocol analysis, pass 3: reply obligations.

   Every handler arm that dispatches on a message name declared with a
   non-empty reply set must, on every syntactic control-flow path, either
   transmit a reply or explicitly discard the reply port (matching it
   against [None] is the sanctioned discard).  The walk is
   branch-sensitive over match/if/sequence/let/try and leans on
   [Proto_summary] for interprocedural discharge: calling a replier —
   a function that inspects [reply_to] and reaches a send — or passing
   the bound reply port to anything counts.

   Dispatch sites wrapped in [Rpc.serve]/[serve_always] callbacks are
   skipped outright: serve transmits whatever tuple the callback
   returns, so every non-raising path replies by construction. *)

open Parsetree
open Proto_extract

let obligated_names units =
  List.fold_left
    (fun acc u ->
      List.fold_left
        (fun acc h -> if h.h_obligated then SSet.add h.h_name acc else acc)
        acc u.u_handles)
    SSet.empty units
  |> SSet.remove "failure"

(* Does any subtree transmit using the reply port?  Evidence: a bound
   reply-port variable, a [reply_to] field access, or a call to a
   replier summary. *)
let contains_discharge env ~own rvs e =
  let found = ref false in
  let super = Ast_iterator.default_iterator in
  let expr self e =
    (match e.pexp_desc with
    | Pexp_ident { txt = Longident.Lident x; _ } when SSet.mem x rvs -> found := true
    | Pexp_field (_, lid) when String.equal (lid_last lid.txt) "reply_to" -> found := true
    | Pexp_apply (f, _) -> (
        match callee_pair f with
        | Some pair when Proto_summary.is_replier env ~own pair -> found := true
        | _ -> ())
    | _ -> ());
    if not !found then super.expr self e
  in
  let it = { super with expr } in
  it.expr it e;
  !found

let is_lambda e =
  match e.pexp_desc with Pexp_fun _ | Pexp_function _ | Pexp_newtype _ -> true | _ -> false

(* How a reply-position sub-pattern constrains an alternative. *)
let classify_reply_pat rp =
  match (strip rp).ppat_desc with
  | Ppat_construct ({ txt; _ }, None) when String.equal (lid_last txt) "None" -> `Exempt
  | Ppat_construct ({ txt; _ }, Some (_, arg)) when String.equal (lid_last txt) "Some" -> (
      match (strip arg).ppat_desc with Ppat_var { txt = v; _ } -> `Bind v | _ -> `Check)
  | Ppat_var { txt = v; _ } -> `Bind v
  | _ -> `Check

(* Must-discharge: true iff every syntactic path through [e] replies or
   explicitly discards.  Lambda bodies are skipped (defining a helper is
   not executing it); an inner match whose scrutinee carries the reply
   port re-applies the per-alternative None exemption. *)
let rec discharges env ~own rvs e =
  match e.pexp_desc with
  | Pexp_sequence (a, b) -> discharges env ~own rvs a || discharges env ~own rvs b
  | Pexp_let (_, vbs, body) ->
      let rvs' =
        List.fold_left
          (fun acc vb ->
            match binding_name vb.pvb_pat with
            | Some x when is_reply_source ~vars:rvs vb.pvb_expr -> SSet.add x acc
            | _ -> acc)
          rvs vbs
      in
      List.exists
        (fun vb -> (not (is_lambda vb.pvb_expr)) && discharges env ~own rvs vb.pvb_expr)
        vbs
      || discharges env ~own rvs' body
  | Pexp_ifthenelse (c, t, Some f) ->
      discharges env ~own rvs c
      || (discharges env ~own rvs t && discharges env ~own rvs f)
  | Pexp_ifthenelse (c, _, None) -> discharges env ~own rvs c
  | Pexp_match (scrut, cases) -> (
      let comps, _, ri = match_positions ~reply_vars:rvs scrut in
      match ri with
      | Some rix ->
          let ncomps = List.length comps in
          List.for_all
            (fun case ->
              List.for_all
                (fun alt ->
                  match sub_at alt ~idx:rix ~ncomps with
                  | Some rp -> (
                      match classify_reply_pat rp with
                      | `Exempt -> true
                      | `Bind v -> discharges env ~own (SSet.add v rvs) case.pc_rhs
                      | `Check -> discharges env ~own rvs case.pc_rhs)
                  | None -> discharges env ~own rvs case.pc_rhs)
                (alternatives case.pc_lhs))
            cases
      | None ->
          discharges env ~own rvs scrut
          || List.for_all (fun case -> discharges env ~own rvs case.pc_rhs) cases)
  | Pexp_try (body, _) -> discharges env ~own rvs body
  | Pexp_constraint (inner, _) | Pexp_open (_, inner) -> discharges env ~own rvs inner
  | Pexp_fun _ | Pexp_function _ | Pexp_newtype _ -> false
  | _ -> contains_discharge env ~own rvs e

let check env ~obligated u =
  match u.u_structure with
  | Error _ -> []
  | Ok structure ->
      let own = u.u_module in
      let findings = ref [] in
      let seen : (string, unit) Hashtbl.t = Hashtbl.create 16 in
      let context = ref "-" in
      let rvs = ref SSet.empty in
      let in_serve = ref false in
      let report ~line name =
        let k = !context ^ "/" ^ name in
        if not (Hashtbl.mem seen k) then begin
          Hashtbl.add seen k ();
          findings :=
            Finding.v ~rule:"proto-reply-obligation" ~file:u.u_path ~line ~col:0
              ~context:!context ~token:name
              (Printf.sprintf
                 "handler for %S can drop the reply port on a control-flow path; reply on \
                  every path or discard it explicitly by matching reply_to against None"
                 name)
            :: !findings
        end
      in
      let check_dispatch e scrut cases =
        let comps, ci, ri = match_positions ~reply_vars:!rvs scrut in
        match ci with
        | None -> ()
        | Some cix ->
            let ncomps = List.length comps in
            let gated =
              Option.is_some ri
              || (not (SSet.is_empty !rvs))
              || contains_discharge env ~own !rvs e
            in
            if gated then
              List.iter
                (fun case ->
                  List.iter
                    (fun alt ->
                      let consts =
                        match sub_at alt ~idx:cix ~ncomps with
                        | Some p -> pat_constants p
                        | None -> []
                      in
                      let obl = List.filter (fun c -> SSet.mem c obligated) consts in
                      if obl <> [] then
                        let ok =
                          match ri with
                          | Some rix -> (
                              match sub_at alt ~idx:rix ~ncomps with
                              | Some rp -> (
                                  match classify_reply_pat rp with
                                  | `Exempt -> true
                                  | `Bind v ->
                                      discharges env ~own (SSet.add v !rvs) case.pc_rhs
                                  | `Check -> discharges env ~own !rvs case.pc_rhs)
                              | None -> discharges env ~own !rvs case.pc_rhs)
                          | None -> discharges env ~own !rvs case.pc_rhs
                        in
                        if not ok then
                          List.iter (report ~line:(line_of alt.ppat_loc)) obl)
                    (alternatives case.pc_lhs))
                cases
      in
      let super = Ast_iterator.default_iterator in
      let expr self e =
        match e.pexp_desc with
        | Pexp_apply (f, _)
          when (match callee_pair f with
               | Some (_, ("serve" | "serve_always")) -> true
               | _ -> false)
               && not !in_serve ->
            in_serve := true;
            super.expr self e;
            in_serve := false
        | Pexp_fun (_, _, pat, _) ->
            (match binding_name pat with
            | Some (("reply" | "reply_to") as x) -> rvs := SSet.add x !rvs
            | _ -> ());
            super.expr self e
        | Pexp_let (_, vbs, _) ->
            List.iter
              (fun vb ->
                match binding_name vb.pvb_pat with
                | Some x when is_reply_source ~vars:!rvs vb.pvb_expr -> rvs := SSet.add x !rvs
                | _ -> ())
              vbs;
            super.expr self e
        | Pexp_match (scrut, cases) ->
            if not !in_serve then check_dispatch e scrut cases;
            super.expr self e
        | _ -> super.expr self e
      in
      let structure_item self item =
        match item.pstr_desc with
        | Pstr_value (_, bindings) ->
            List.iter
              (fun vb ->
                let saved_ctx = !context in
                let saved_rvs = !rvs in
                (match binding_name vb.pvb_pat with Some name -> context := name | None -> ());
                self.Ast_iterator.value_binding self vb;
                context := saved_ctx;
                rvs := saved_rvs)
              bindings
        | _ -> super.structure_item self item
      in
      let it = { super with expr; structure_item } in
      it.structure it structure;
      List.rev !findings
