(* Whole-program protocol analysis, pass 1: per-unit extraction.

   Parses every compilation unit once and pulls out the raw protocol facts
   the later passes consume: function definitions (fuel for the
   interprocedural summaries in Proto_summary), declared message signatures
   (Rpc.request_signature / Vtype.signature / Vtype.reply), and handler
   dispatch sites (match cases over a message command).  Like Scan, the
   pass is untyped and syntactic: names are resolved by their written
   [Longident] suffix, which matches the tree's pervasive
   [module Rpc = Dcp_primitives.Rpc] aliasing idiom. *)

open Parsetree
module SSet = Set.Make (String)
module SMap = Map.Make (String)

(* Abstract string set: the lattice every command-name evaluation lives
   in.  [Dynamic] means "some name we cannot resolve statically" and
   poisons unions. *)
type names = Known of SSet.t | Dynamic

let known l = Known (SSet.of_list l)

let nunion a b =
  match (a, b) with Dynamic, _ | _, Dynamic -> Dynamic | Known a, Known b -> Known (SSet.union a b)

(* ---- longident / callee helpers ---- *)

let last2 comps =
  match List.rev comps with
  | last :: prev :: _ -> (prev, last)
  | [ last ] -> ("", last)
  | [] -> ("", "")

let lid_last lid = match List.rev (Longident.flatten lid) with last :: _ -> last | [] -> ""

let rec callee_lid e =
  match e.pexp_desc with
  | Pexp_ident lid -> Some lid.txt
  | Pexp_apply (f, _) -> callee_lid f
  | _ -> None

let callee_pair e =
  match callee_lid e with Some lid -> Some (last2 (Longident.flatten lid)) | None -> None

let pair_string (m, f) = if String.equal m "" then f else m ^ "." ^ f

let line_of loc = loc.Location.loc_start.Lexing.pos_lnum

(* ---- application arguments ---- *)

let positional n args =
  let rec go i = function
    | [] -> None
    | (Asttypes.Nolabel, e) :: rest -> if i = n then Some e else go (i + 1) rest
    | _ :: rest -> go i rest
  in
  go 0 args

let labelled name args =
  List.find_map
    (function
      | (Asttypes.Labelled l | Asttypes.Optional l), e when String.equal l name -> Some e
      | _ -> None)
    args

(* ---- patterns ---- *)

let rec strip p =
  match p.ppat_desc with
  | Ppat_alias (inner, _) | Ppat_constraint (inner, _) | Ppat_open (_, inner) -> strip inner
  | _ -> p

(* Flatten a top-level or-pattern into its alternatives. *)
let rec alternatives p =
  let p = strip p in
  match p.ppat_desc with Ppat_or (a, b) -> alternatives a @ alternatives b | _ -> [ p ]

(* Every string constant reachable under or/alias nesting. *)
let rec pat_constants p =
  let p = strip p in
  match p.ppat_desc with
  | Ppat_constant (Pconst_string (s, _, _)) -> [ s ]
  | Ppat_or (a, b) -> pat_constants a @ pat_constants b
  | _ -> []

let rec binding_name pat =
  match pat.ppat_desc with
  | Ppat_var { txt; _ } -> Some txt
  | Ppat_constraint (inner, _) | Ppat_alias (inner, _) -> binding_name inner
  | _ -> None

(* The [idx]-th component of a case alternative matching an [ncomps]-tuple
   scrutinee; [None] when the alternative is a catch-all that covers the
   component without naming it. *)
let sub_at alt ~idx ~ncomps =
  if ncomps = 1 then Some alt
  else
    match (strip alt).ppat_desc with
    | Ppat_tuple comps when List.length comps = ncomps -> List.nth_opt comps idx
    | _ -> None

(* ---- function definitions ---- *)

type param = {
  p_label : string;  (** "" when positional *)
  p_name : string;
  p_pos : int;  (** index among positional params; [-1] for labelled *)
  p_default : expression option;
}

type fn = {
  fn_name : string;
  fn_key : string;  (** ["Module.name"], the global summary key *)
  fn_context : string;  (** enclosing top-level binding *)
  fn_params : param list;
  fn_body : expression;
  fn_line : int;
}

(* Walk a [fun]-chain down to the first non-fun body.  A [function] is
   one more positional parameter whose body is the [function] itself, so
   [let f = function ...] is a one-parameter function; its cases stay the
   body, and the later tail analyses flatten through them, which is what
   a one-argument dispatch function wants. *)
let decompose_fun e =
  let rec go pos acc e =
    match e.pexp_desc with
    | Pexp_fun (lbl, default, pat, body) ->
        let label =
          match lbl with Asttypes.Nolabel -> "" | Asttypes.Labelled l | Asttypes.Optional l -> l
        in
        let name =
          match binding_name pat with
          | Some n -> n
          | None -> if String.equal label "" then "_" else label
        in
        let p =
          {
            p_label = label;
            p_name = name;
            p_pos = (if String.equal label "" then pos else -1);
            p_default = default;
          }
        in
        go (if String.equal label "" then pos + 1 else pos) (p :: acc) body
    | Pexp_newtype (_, body) -> go pos acc body
    | Pexp_function _ ->
        let p = { p_label = ""; p_name = "_"; p_pos = pos; p_default = None } in
        (List.rev (p :: acc), e)
    | _ -> (List.rev acc, e)
  in
  go 0 [] e

(* ---- handler / declaration sites ---- *)

type handle_kind =
  | Dispatch  (** a match case over a message command, or a [Message.handle] *)
  | Declared  (** Rpc.request_signature / Vtype.signature / Command.make *)
  | Reply_declared  (** Vtype.reply *)
  | Reply_match  (** an [Rpc.Reply ("name", _)] consumption pattern *)

let kind_name = function
  | Dispatch -> "dispatch"
  | Declared -> "declared"
  | Reply_declared -> "reply-declared"
  | Reply_match -> "reply-match"

type handle = {
  h_name : string;
  h_kind : handle_kind;
  h_line : int;
  h_context : string;
  h_obligated : bool;  (** declared with a non-empty reply set *)
}

(* ---- command / reply scrutinee shapes ---- *)

let is_command_expr e =
  match e.pexp_desc with
  | Pexp_field (_, lid) -> String.equal (lid_last lid.txt) "command"
  | Pexp_ident { txt = Longident.Lident x; _ } -> String.equal x "command"
  | _ -> false

let is_reply_source ~vars e =
  match e.pexp_desc with
  | Pexp_field (_, lid) -> String.equal (lid_last lid.txt) "reply_to"
  | Pexp_ident { txt = Longident.Lident x; _ } -> SSet.mem x vars
  | _ -> false

let index_of pred l =
  let rec go i = function [] -> None | x :: rest -> if pred x then Some i else go (i + 1) rest in
  go 0 l

(* A match scrutinee viewed as components: the component list, plus the
   positions of the command and the reply port when present. *)
let match_positions ?(reply_vars = SSet.empty) scrut =
  let comps = match scrut.pexp_desc with Pexp_tuple l -> l | _ -> [ scrut ] in
  let ci = index_of is_command_expr comps in
  let ri = index_of (is_reply_source ~vars:reply_vars) comps in
  (comps, ci, ri)

(* ---- the per-unit record ---- *)

type unit_info = {
  u_path : string;
  u_module : string;  (** capitalized basename, e.g. ["Branch"] *)
  u_lib : string option;  (** ["bank"] for [lib/bank/branch.ml] *)
  u_id : string;  (** graph node id, e.g. ["bank/branch"] *)
  u_structure : (structure, exn) result;  (** [Error] when the unit fails to parse *)
  u_fns : fn list;
  u_handles : handle list;
  u_commands : (string * string) list;
      (** top-level [let x = Command.make "name" ...]: (x, name) *)
}

let module_of_path path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

let id_of_path path =
  let base = Filename.remove_extension (Filename.basename path) in
  match String.split_on_char '/' path with
  | "lib" :: dir :: _ -> dir ^ "/" ^ base
  | dir :: _ :: _ -> dir ^ "/" ^ base
  | _ -> base

let lib_of_path path =
  match String.split_on_char '/' path with [ "lib"; dir; _ ] -> Some dir | _ -> None

(* ---- typed commands ---- *)

let is_command_make e =
  match e.pexp_desc with
  | Pexp_apply (f, args) -> (
      match (callee_pair f, positional 0 args) with
      | ( Some ("Command", "make"),
          Some { pexp_desc = Pexp_constant (Pconst_string (name, _, _)); pexp_loc; _ } ) ->
          Some (name, pexp_loc, args)
      | _ -> None)
  | _ -> None

(* The unit's top-level command values, by binding name. *)
let command_bindings structure =
  List.concat_map
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, bindings) ->
          List.filter_map
            (fun vb ->
              match (binding_name vb.pvb_pat, is_command_make vb.pvb_expr) with
              | Some x, Some (name, _, _) -> Some (x, name)
              | _ -> None)
            bindings
      | _ -> [])
    structure

(* The command name a command expression denotes: one of the unit's own
   command values, or the implicit [Command.failure]. *)
let command_name ~commands e =
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident x; _ } -> List.assoc_opt x commands
  | Pexp_ident { txt = Longident.Ldot (Longident.Lident "Command", "failure"); _ } ->
      Some "failure"
  | _ -> None

(* Collect function definitions (top-level and local) and handler /
   declaration sites in one walk. *)
let extract ~path structure =
  let commands = command_bindings structure in
  let modname = module_of_path path in
  let fns = ref [] in
  let handles = ref [] in
  let context = ref "-" in
  let add_handle ~name ~kind ~line ~obligated =
    handles :=
      { h_name = name; h_kind = kind; h_line = line; h_context = !context; h_obligated = obligated }
      :: !handles
  in
  let super = Ast_iterator.default_iterator in
  let value_binding self vb =
    (match binding_name vb.pvb_pat with
    | Some name -> (
        match decompose_fun vb.pvb_expr with
        | [], _ -> ()
        | params, body ->
            fns :=
              {
                fn_name = name;
                fn_key = modname ^ "." ^ name;
                fn_context = !context;
                fn_params = params;
                fn_body = body;
                fn_line = line_of vb.pvb_loc;
              }
              :: !fns)
    | None -> ());
    super.value_binding self vb
  in
  let record_dispatch_cases scrut cases loc =
    match match_positions scrut with
    | comps, Some ci, _ ->
        List.iter
          (fun case ->
            List.iter
              (fun alt ->
                match sub_at alt ~idx:ci ~ncomps:(List.length comps) with
                | Some sub ->
                    List.iter
                      (fun name ->
                        add_handle ~name ~kind:Dispatch ~line:(line_of loc) ~obligated:false)
                      (pat_constants sub)
                | None -> ())
              (alternatives case.pc_lhs))
          cases
    | _ -> ()
  in
  let expr self e =
    (match e.pexp_desc with
    | Pexp_match (scrut, cases) -> record_dispatch_cases scrut cases e.pexp_loc
    | Pexp_apply (f, args) -> (
        match callee_pair f with
        | Some (_, "request_signature") -> (
            match positional 0 args with
            | Some { pexp_desc = Pexp_constant (Pconst_string (name, _, _)); pexp_loc; _ } ->
                (* RPC requests always carry replies (the labelled argument
                   is mandatory), so the reply obligation always holds. *)
                add_handle ~name ~kind:Declared ~line:(line_of pexp_loc) ~obligated:true
            | _ -> ())
        | Some ("Vtype", "signature") -> (
            match positional 0 args with
            | Some { pexp_desc = Pexp_constant (Pconst_string (name, _, _)); pexp_loc; _ } ->
                let obligated =
                  match labelled "replies" args with
                  | Some { pexp_desc = Pexp_construct ({ txt = Longident.Lident "[]"; _ }, None); _ }
                    ->
                      false
                  | Some _ -> true
                  | None -> false
                in
                add_handle ~name ~kind:Declared ~line:(line_of pexp_loc) ~obligated
            | _ -> ())
        | Some ("Vtype", "reply") -> (
            match positional 0 args with
            | Some { pexp_desc = Pexp_constant (Pconst_string (name, _, _)); pexp_loc; _ } ->
                add_handle ~name ~kind:Reply_declared ~line:(line_of pexp_loc) ~obligated:false
            | _ -> ())
        | Some ("Command", "make") -> (
            match is_command_make e with
            | Some (name, loc, args) ->
                let obligated =
                  match labelled "replies" args with
                  | Some { pexp_desc = Pexp_construct ({ txt = Longident.Lident "[]"; _ }, None); _ }
                  | None ->
                      false
                  | Some _ -> true
                in
                add_handle ~name ~kind:Declared ~line:(line_of loc) ~obligated
            | None -> ())
        | Some ("Message", "handle") -> (
            match Option.bind (positional 0 args) (command_name ~commands) with
            | Some name -> add_handle ~name ~kind:Dispatch ~line:(line_of e.pexp_loc) ~obligated:false
            | None -> ())
        | _ -> ())
    | _ -> ());
    super.expr self e
  in
  let pat self p =
    (match p.ppat_desc with
    | Ppat_construct (lid, Some (_, arg)) when String.equal (lid_last lid.txt) "Reply" ->
        (* [Rpc.Reply ("name", _)]: the client consumes this reply name. *)
        let first =
          match (strip arg).ppat_desc with Ppat_tuple (c :: _) -> Some c | _ -> None
        in
        Option.iter
          (fun c ->
            List.iter
              (fun name ->
                add_handle ~name ~kind:Reply_match ~line:(line_of p.ppat_loc) ~obligated:false)
              (pat_constants c))
          first
    | Ppat_record (fields, _) ->
        List.iter
          (fun (lid, sub) ->
            if String.equal (lid_last lid.Location.txt) "command" then
              List.iter
                (fun name ->
                  add_handle ~name ~kind:Dispatch ~line:(line_of p.ppat_loc) ~obligated:false)
                (pat_constants sub))
          fields
    | _ -> ());
    super.pat self p
  in
  let structure_item self item =
    match item.pstr_desc with
    | Pstr_value (_, bindings) ->
        List.iter
          (fun vb ->
            let saved = !context in
            (match binding_name vb.pvb_pat with Some name -> context := name | None -> ());
            self.Ast_iterator.value_binding self vb;
            context := saved)
          bindings
    | _ -> super.structure_item self item
  in
  let it = { super with expr; pat; value_binding; structure_item } in
  it.structure it structure;
  (List.rev !fns, List.rev !handles, commands)

let load ~path ~source =
  let structure =
    try
      let lexbuf = Lexing.from_string source in
      Location.init lexbuf path;
      Ok (Parse.implementation lexbuf)
    with exn -> Error exn
  in
  let fns, handles, commands =
    match structure with Ok s -> extract ~path s | Error _ -> ([], [], [])
  in
  {
    u_path = path;
    u_module = module_of_path path;
    u_lib = lib_of_path path;
    u_id = id_of_path path;
    u_structure = structure;
    u_fns = fns;
    u_handles = handles;
    u_commands = commands;
  }
