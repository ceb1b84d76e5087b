type t =
  | Unit
  | Bool of bool
  | Int of int
  | Real of float
  | Str of string
  | Listv of t list
  | Tuple of t list
  | Record of (string * t) list
  | Option of t option
  | Portv of Port_name.t
  | Tokenv of Token.t
  | Named of string * t

let rec equal a b =
  match (a, b) with
  | Unit, Unit -> true
  | Bool x, Bool y -> Bool.equal x y
  | Int x, Int y -> Int.equal x y
  | Real x, Real y -> Float.equal x y
  | Str x, Str y -> String.equal x y
  | Listv x, Listv y | Tuple x, Tuple y -> List.equal equal x y
  | Record x, Record y ->
      List.equal (fun (n1, v1) (n2, v2) -> String.equal n1 n2 && equal v1 v2) x y
  | Option x, Option y -> Option.equal equal x y
  | Portv x, Portv y -> Port_name.equal x y
  | Tokenv x, Tokenv y -> Token.equal x y
  | Named (n1, v1), Named (n2, v2) -> String.equal n1 n2 && equal v1 v2
  | ( ( Unit | Bool _ | Int _ | Real _ | Str _ | Listv _ | Tuple _ | Record _ | Option _
      | Portv _ | Tokenv _ | Named _ ),
      _ ) ->
      false

let rec pp fmt = function
  | Unit -> Format.pp_print_string fmt "()"
  | Bool b -> Format.pp_print_bool fmt b
  | Int i -> Format.pp_print_int fmt i
  | Real r -> Format.fprintf fmt "%g" r
  | Str s -> Format.fprintf fmt "%S" s
  | Listv l -> Format.fprintf fmt "[%a]" (Format.pp_print_list ~pp_sep:pp_semi pp) l
  | Tuple l -> Format.fprintf fmt "(%a)" (Format.pp_print_list ~pp_sep:pp_comma pp) l
  | Record fields ->
      let pp_field fmt (name, v) = Format.fprintf fmt "%s=%a" name pp v in
      Format.fprintf fmt "{%a}" (Format.pp_print_list ~pp_sep:pp_semi pp_field) fields
  | Option None -> Format.pp_print_string fmt "none"
  | Option (Some v) -> Format.fprintf fmt "some(%a)" pp v
  | Portv p -> Port_name.pp fmt p
  | Tokenv tok -> Token.pp fmt tok
  | Named (name, v) -> Format.fprintf fmt "%s:%a" name pp v

and pp_semi fmt () = Format.pp_print_string fmt "; "
and pp_comma fmt () = Format.pp_print_string fmt ", "

let to_string v = Format.asprintf "%a" pp v

let rec size = function
  | Unit | Bool _ -> 1
  | Int _ | Real _ -> 8
  | Str s -> 4 + String.length s
  | Listv l | Tuple l -> List.fold_left (fun acc v -> acc + size v) 4 l
  | Record fields ->
      List.fold_left (fun acc (name, v) -> acc + String.length name + size v) 4 fields
  | Option None -> 1
  | Option (Some v) -> 1 + size v
  | Portv _ -> 16
  | Tokenv _ -> 20
  | Named (name, v) -> String.length name + size v

let rec depth = function
  | Unit | Bool _ | Int _ | Real _ | Str _ | Portv _ | Tokenv _ | Option None -> 1
  | Listv l | Tuple l -> 1 + List.fold_left (fun acc v -> Int.max acc (depth v)) 0 l
  | Record fields -> 1 + List.fold_left (fun acc (_, v) -> Int.max acc (depth v)) 0 fields
  | Option (Some v) | Named (_, v) -> 1 + depth v

let unit = Unit
let bool b = Bool b
let int i = Int i
let real r = Real r
let str s = Str s
let list l = Listv l
let tuple l = Tuple l
let record fields = Record fields
let option o = Option o
let port p = Portv p
let token tok = Tokenv tok

exception Type_mismatch of string

let mismatch expected v = raise (Type_mismatch (expected ^ " expected, got " ^ to_string v))

let get_bool = function Bool b -> b | v -> mismatch "bool" v
let get_int = function Int i -> i | v -> mismatch "int" v
let get_real = function Real r -> r | v -> mismatch "real" v
let get_str = function Str s -> s | v -> mismatch "string" v
let get_list = function Listv l -> l | v -> mismatch "list" v
let get_option = function Option o -> o | v -> mismatch "option" v
let get_port = function Portv p -> p | v -> mismatch "port" v
let get_token = function Tokenv tok -> tok | v -> mismatch "token" v
let get_named = function Named (name, v) -> (name, v) | v -> mismatch "named" v

let field v name =
  match v with
  | Record fields -> (
      match List.assoc_opt name fields with
      | Some v -> v
      | None -> raise (Type_mismatch ("missing field " ^ name)))
  | v -> mismatch "record" v
