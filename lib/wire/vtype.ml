type t =
  | Tunit
  | Tbool
  | Tint
  | Treal
  | Tstr
  | Tlist of t
  | Ttuple of t list
  | Trecord of (string * t) list
  | Toption of t
  | Tport
  | Ttoken
  | Tnamed of string
  | Tany

let rec pp fmt = function
  | Tunit -> Format.pp_print_string fmt "unit"
  | Tbool -> Format.pp_print_string fmt "bool"
  | Tint -> Format.pp_print_string fmt "int"
  | Treal -> Format.pp_print_string fmt "real"
  | Tstr -> Format.pp_print_string fmt "string"
  | Tlist t -> Format.fprintf fmt "list[%a]" pp t
  | Ttuple ts ->
      Format.fprintf fmt "(%a)"
        (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ") pp)
        ts
  | Trecord fields ->
      let pp_field fmt (name, t) = Format.fprintf fmt "%s: %a" name pp t in
      Format.fprintf fmt "{%a}"
        (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.pp_print_string fmt "; ") pp_field)
        fields
  | Toption t -> Format.fprintf fmt "option[%a]" pp t
  | Tport -> Format.pp_print_string fmt "port"
  | Ttoken -> Format.pp_print_string fmt "token"
  | Tnamed name -> Format.pp_print_string fmt name
  | Tany -> Format.pp_print_string fmt "any"

let to_string t = Format.asprintf "%a" pp t
let rec equal a b =
  match (a, b) with
  | Tunit, Tunit | Tbool, Tbool | Tint, Tint | Treal, Treal | Tstr, Tstr -> true
  | Tport, Tport | Ttoken, Ttoken | Tany, Tany -> true
  | Tlist x, Tlist y | Toption x, Toption y -> equal x y
  | Ttuple x, Ttuple y -> List.equal equal x y
  | Trecord x, Trecord y ->
      List.equal (fun (n1, t1) (n2, t2) -> String.equal n1 n2 && equal t1 t2) x y
  | Tnamed x, Tnamed y -> String.equal x y
  | ( ( Tunit | Tbool | Tint | Treal | Tstr | Tlist _ | Ttuple _ | Trecord _ | Toption _
      | Tport | Ttoken | Tnamed _ | Tany ),
      _ ) ->
      false

(* Only the error path builds anything: a value that checks allocates
   nothing (no closure per node, no zipped list per tuple). *)
let mismatch t v = Error (Format.asprintf "expected %a, got %a" pp t Value.pp v)

let rec check t v =
  match (t, v) with
  | Tany, _ -> Ok ()
  | Tunit, Value.Unit -> Ok ()
  | Tbool, Value.Bool _ -> Ok ()
  | Tint, Value.Int _ -> Ok ()
  | Treal, Value.Real _ -> Ok ()
  | Tstr, Value.Str _ -> Ok ()
  | Tlist elt, Value.Listv items -> check_all elt items
  | Ttuple ts, Value.Tuple items ->
      if List.compare_lengths ts items <> 0 then mismatch t v else check_pairs ts items
  | Trecord fields, Value.Record vfields ->
      if List.compare_lengths fields vfields <> 0 then mismatch t v
      else check_fields fields vfields
  | Toption _, Value.Option None -> Ok ()
  | Toption elt, Value.Option (Some v) -> check elt v
  | Tport, Value.Portv _ -> Ok ()
  | Ttoken, Value.Tokenv _ -> Ok ()
  | Tnamed name, Value.Named (vname, _) ->
      if String.equal name vname then Ok ()
      else Error (Format.asprintf "expected abstract type %s, got %s" name vname)
  | ( ( Tunit | Tbool | Tint | Treal | Tstr | Tlist _ | Ttuple _ | Trecord _ | Toption _
      | Tport | Ttoken | Tnamed _ ),
      _ ) ->
      mismatch t v

and check_all elt = function
  | [] -> Ok ()
  | v :: rest -> ( match check elt v with Ok () -> check_all elt rest | err -> err)

(* [ts] and [vs] have the same length. *)
and check_pairs ts vs =
  match (ts, vs) with
  | t :: ts, v :: vs -> ( match check t v with Ok () -> check_pairs ts vs | err -> err)
  | _, _ -> Ok ()

and check_fields fields vfields =
  match fields with
  | [] -> Ok ()
  | (name, ft) :: rest -> (
      match List.assoc_opt name vfields with
      | None -> Error ("missing field " ^ name)
      | Some fv -> ( match check ft fv with Ok () -> check_fields rest vfields | err -> err))

type reply = { reply_command : string; reply_args : t list }
type signature = { command : string; args : t list; replies : reply list }

let signature ?(replies = []) command args = { command; args; replies }
let reply reply_command reply_args = { reply_command; reply_args }

type port_type = signature list

(* §3.4: "the message [failure (string)] is automatically and implicitly
   associated with each port type". *)
let failure_signature = signature "failure" [ Tstr ]
let wildcard = signature "*" []

(* A command may be overloaded (several signatures, e.g. the primordial
   guardian's plain and RPC-style pings): the message is accepted if any
   signature for its command matches. *)
let check_message pt ~command args =
  let candidates =
    if String.equal command failure_signature.command then [ failure_signature ]
    else List.filter (fun s -> String.equal s.command command) pt
  in
  if candidates = [] then
    if List.exists (fun s -> String.equal s.command "*") pt then Ok ()
    else Error (Format.asprintf "port does not accept command %S" command)
  else
    let matches s =
      List.length s.args = List.length args
      && List.for_all2 (fun t v -> Result.is_ok (check t v)) s.args args
    in
    if List.exists matches candidates then Ok ()
    else
      Error
        (Format.asprintf "arguments do not match any %S signature of the port" command)

let pp_signature fmt s =
  let pp_args = Format.pp_print_list ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ") pp in
  Format.fprintf fmt "%s(%a)" s.command pp_args s.args;
  if s.replies <> [] then begin
    let pp_reply fmt r = Format.fprintf fmt "%s(%a)" r.reply_command pp_args r.reply_args in
    Format.fprintf fmt " replies (%a)"
      (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ") pp_reply)
      s.replies
  end

let pp_port_type fmt pt =
  Format.fprintf fmt "port [@[<v>%a@]]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_signature)
    pt
