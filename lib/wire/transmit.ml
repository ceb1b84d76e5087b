exception Encode_failure of string
exception Decode_failure of string

module type S = sig
  type t

  val type_name : string
  val external_rep : Vtype.t
  val encode : t -> Value.t
  val decode : Value.t -> t
end

type 'a impl = (module S with type t = 'a)

let to_value (type a) (module M : S with type t = a) (v : a) =
  let rep = M.encode v in
  (match Vtype.check M.external_rep rep with
  | Ok () -> ()
  | Error reason ->
      raise
        (Encode_failure
           (Printf.sprintf "%s: encode produced an invalid external rep (%s)" M.type_name reason)));
  Value.Named (M.type_name, rep)

let of_value (type a) (module M : S with type t = a) v : a =
  match v with
  | Value.Named (name, rep) ->
      if not (String.equal name M.type_name) then
        raise
          (Decode_failure (Printf.sprintf "expected type %s, received %s" M.type_name name));
      (match Vtype.check M.external_rep rep with
      | Ok () -> ()
      | Error reason ->
          raise
            (Decode_failure
               (Printf.sprintf "%s: external rep does not match the registered shape (%s)"
                  M.type_name reason)));
      M.decode rep
  | v ->
      raise
        (Decode_failure
           (Printf.sprintf "expected a %s value, received %s" M.type_name (Value.to_string v)))

type registry = (string, Vtype.t) Hashtbl.t

let registry () = Hashtbl.create 16

let register reg ~type_name ~external_rep =
  match Hashtbl.find_opt reg type_name with
  | None -> Hashtbl.add reg type_name external_rep
  | Some existing ->
      if not (Vtype.equal existing external_rep) then
        invalid_arg
          (Printf.sprintf
             "Transmit.register: %s already registered with external rep %s (got %s)" type_name
             (Vtype.to_string existing) (Vtype.to_string external_rep))


(* Left to right, stopping at the first error: the walk allocates nothing
   on a value that checks. *)
let rec check_named reg v =
  match v with
  | Value.Unit | Value.Bool _ | Value.Int _ | Value.Real _ | Value.Str _ | Value.Portv _
  | Value.Tokenv _ | Value.Option None ->
      Ok ()
  | Value.Listv items | Value.Tuple items -> check_all reg items
  | Value.Record fields -> check_fields reg fields
  | Value.Option (Some inner) -> check_named reg inner
  | Value.Named (name, rep) -> (
      match Hashtbl.find_opt reg name with
      | None -> Error (Printf.sprintf "unregistered abstract type %s" name)
      | Some shape -> (
          match Vtype.check shape rep with
          | Error reason ->
              Error (Printf.sprintf "%s: external rep mismatch (%s)" name reason)
          | Ok () -> check_named reg rep))

and check_all reg = function
  | [] -> Ok ()
  | v :: rest -> ( match check_named reg v with Ok () -> check_all reg rest | err -> err)

and check_fields reg = function
  | [] -> Ok ()
  | (_, v) :: rest -> ( match check_named reg v with Ok () -> check_fields reg rest | err -> err)
