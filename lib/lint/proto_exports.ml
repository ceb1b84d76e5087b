(* Whole-program protocol analysis, pass 5: unused exports.

   A guardian shows the world only its ports (paper §2, §3.2); a library
   module likewise should export only what some other unit names.  Every
   [val] of every interface under lib/ — nested [module X : sig ... end]
   included — is matched against the value paths of every other unit in
   lib/, bin/, bench/, examples/ and test/.

   Matching is on (module, name) where the module is the last component of
   the written path after resolving [module A = B.C] aliases, so
   [Dcp_core.Runtime.send], [Runtime.send] and [R.send] under
   [module R = Dcp_core.Runtime] all name (Runtime, send).  Every rule of
   the proto tier keeps zero false positives, so the matching errs towards
   "used": aliases are resolved flow-insensitively (every target an alias
   name has anywhere in the unit counts); a unit that opens or includes a
   module uses each of its vals whose name the unit mentions unqualified;
   a module passed as a functor argument or packed as a first-class module
   has every val used; and a same-named module anywhere (e.g. a bench
   module shadowing a library one) counts as the library module. *)

open Parsetree
open Proto_extract

type decl = { d_path : string; d_module : string; d_name : string; d_line : int; d_col : int }

(* ---- declarations ---- *)

let declarations ~path source =
  let rec sig_items modname items =
    List.concat_map
      (fun item ->
        match item.psig_desc with
        | Psig_value vd ->
            let pos = vd.pval_loc.Location.loc_start in
            [
              {
                d_path = path;
                d_module = modname;
                d_name = vd.pval_name.txt;
                d_line = pos.Lexing.pos_lnum;
                d_col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol;
              };
            ]
        | Psig_module { pmd_name = { txt = Some name; _ }; pmd_type; _ } ->
            module_type name pmd_type
        | Psig_recmodule mds ->
            List.concat_map
              (fun md ->
                match md.pmd_name.txt with Some name -> module_type name md.pmd_type | None -> [])
              mds
        | _ -> [])
      items
  and module_type name mty =
    match mty.pmty_desc with Pmty_signature items -> sig_items name items | _ -> []
  in
  try
    let lexbuf = Lexing.from_string source in
    Location.init lexbuf path;
    sig_items (module_of_path path) (Parse.interface lexbuf)
  with _ -> []

(* ---- uses ---- *)

let key m name = m ^ "." ^ name

(* The (module, name) keys a unit names, plus the modules it uses whole
   (functor arguments and packed first-class modules). *)
type uses = { named : SSet.t; whole : SSet.t }

let rec module_ident me =
  match me.pmod_desc with
  | Pmod_ident lid -> Some lid.txt
  | Pmod_constraint (inner, _) -> module_ident inner
  | _ -> None

let uses_of structure =
  let aliases = ref [] in
  let qualified = ref [] in
  let opened = ref [] in
  let whole = ref [] in
  let mentioned = ref SSet.empty in
  let alias name me =
    match (name, module_ident me) with
    | Some a, Some lid -> aliases := (a, lid) :: !aliases
    | _ -> ()
  in
  let super = Ast_iterator.default_iterator in
  let expr self e =
    (match e.pexp_desc with
    | Pexp_ident { txt = Longident.Ldot (m, name); _ } -> qualified := (m, name) :: !qualified
    | Pexp_ident { txt = Longident.Lident name; _ } -> mentioned := SSet.add name !mentioned
    | Pexp_letop { let_; ands; _ } ->
        List.iter
          (fun op -> mentioned := SSet.add op.pbop_op.txt !mentioned)
          (let_ :: ands)
    | Pexp_letmodule (name, me, _) -> alias name.txt me
    | Pexp_pack me -> Option.iter (fun lid -> whole := lid :: !whole) (module_ident me)
    | _ -> ());
    super.expr self e
  in
  let module_expr self me =
    (match me.pmod_desc with
    | Pmod_apply (_, arg) -> Option.iter (fun lid -> whole := lid :: !whole) (module_ident arg)
    | _ -> ());
    super.module_expr self me
  in
  let module_binding self mb =
    alias mb.pmb_name.txt mb.pmb_expr;
    super.module_binding self mb
  in
  let open_declaration self od =
    Option.iter (fun lid -> opened := lid :: !opened) (module_ident od.popen_expr);
    super.open_declaration self od
  in
  let include_declaration self incl =
    Option.iter (fun lid -> opened := lid :: !opened) (module_ident incl.pincl_mod);
    super.include_declaration self incl
  in
  let it =
    { super with expr; module_expr; module_binding; open_declaration; include_declaration }
  in
  it.structure it structure;
  (* A written module path names its last component; a bare alias name
     names every module the alias is bound to anywhere in the unit. *)
  let rec resolve seen = function
    | Longident.Ldot (_, m) -> [ m ]
    | Longident.Lapply _ -> []
    | Longident.Lident m -> (
        match List.filter (fun (a, _) -> String.equal a m) !aliases with
        | [] -> [ m ]
        | _ when List.mem m seen -> []
        | targets -> List.concat_map (fun (_, lid) -> resolve (m :: seen) lid) targets)
  in
  let named =
    List.fold_left
      (fun acc (m, name) ->
        List.fold_left (fun acc m -> SSet.add (key m name) acc) acc (resolve [] m))
      SSet.empty !qualified
  in
  let named =
    List.fold_left
      (fun acc lid ->
        List.fold_left
          (fun acc m -> SSet.fold (fun name acc -> SSet.add (key m name) acc) !mentioned acc)
          acc (resolve [] lid))
      named !opened
  in
  { named; whole = SSet.of_list (List.concat_map (resolve []) !whole) }

(* ---- the rule ---- *)

type counts = { declared : int; unused : int; test_only : int }

let is_test path = String.starts_with ~prefix:"test/" path

let check ~interfaces ~units =
  let decls = List.concat_map (fun (path, source) -> declarations ~path source) interfaces in
  let users =
    List.filter_map
      (fun u -> match u.u_structure with Ok s -> Some (u.u_path, uses_of s) | Error _ -> None)
      units
  in
  let users_of d =
    let owner = Filename.remove_extension d.d_path ^ ".ml" in
    let k = key d.d_module d.d_name in
    List.filter_map
      (fun (path, u) ->
        if (not (String.equal path owner)) && (SSet.mem k u.named || SSet.mem d.d_module u.whole)
        then Some path
        else None)
      users
  in
  let classes = List.map (fun d -> (d, users_of d)) decls in
  let unused = List.filter_map (fun (d, by) -> if by = [] then Some d else None) classes in
  let test_only =
    List.length (List.filter (fun (_, by) -> by <> [] && List.for_all is_test by) classes)
  in
  let findings =
    List.map
      (fun d ->
        Finding.v ~rule:"proto-unused-export" ~file:d.d_path ~line:d.d_line ~col:d.d_col
          ~context:d.d_module ~token:d.d_name
          (Printf.sprintf
             "%s.%s is exported but no other unit names it; delete it or drop it from the \
              interface"
             d.d_module d.d_name))
      unused
  in
  (findings, { declared = List.length decls; unused = List.length unused; test_only })
