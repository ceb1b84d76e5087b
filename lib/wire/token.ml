type t = { owner : int; body : int64; tag : int64 }

let owner t = t.owner

let mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL) in
  Int64.(logxor z (shift_right_logical z 31))

(* The body hides the object id; the tag authenticates (secret, owner, body). *)
let make_tag ~secret ~owner ~body =
  mix64 (Int64.logxor secret (mix64 (Int64.logxor body (Int64.of_int (owner * 2654435761)))))

let seal ~secret ~owner ~obj =
  let body = Int64.logxor (mix64 secret) (Int64.of_int obj) in
  { owner; body; tag = make_tag ~secret ~owner ~body }

let unseal ~secret ~owner t =
  if t.owner <> owner then None
  else if not (Int64.equal t.tag (make_tag ~secret ~owner ~body:t.body)) then None
  else Some (Int64.to_int (Int64.logxor (mix64 secret) t.body))

let equal a b = a.owner = b.owner && Int64.equal a.body b.body && Int64.equal a.tag b.tag

let pp fmt t = Format.fprintf fmt "token<g%d:%Lx>" t.owner t.tag
let to_wire t = (t.owner, t.body, t.tag)
let of_wire (owner, body, tag) = { owner; body; tag }
