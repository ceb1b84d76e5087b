open Dcp_wire

type t = Cartesian of { re : float; im : float } | Polar of { modulus : float; arg : float }

let cartesian ~re ~im = Cartesian { re; im }
let polar ~modulus ~arg = Polar { modulus; arg }

let re = function Cartesian { re; _ } -> re | Polar { modulus; arg } -> modulus *. cos arg
let im = function Cartesian { im; _ } -> im | Polar { modulus; arg } -> modulus *. sin arg

let modulus = function
  | Polar { modulus; _ } -> modulus
  | Cartesian { re; im } -> Float.hypot re im

let arg = function Polar { arg; _ } -> arg | Cartesian { re; im } -> Float.atan2 im re
let is_cartesian = function Cartesian _ -> true | Polar _ -> false

let add a b =
  let sum_re = re a +. re b and sum_im = im a +. im b in
  match a with
  | Cartesian _ -> Cartesian { re = sum_re; im = sum_im }
  | Polar _ -> Polar { modulus = Float.hypot sum_re sum_im; arg = Float.atan2 sum_im sum_re }

let mul a b =
  match a with
  | Polar _ -> Polar { modulus = modulus a *. modulus b; arg = arg a +. arg b }
  | Cartesian _ ->
      Cartesian { re = (re a *. re b) -. (im a *. im b); im = (re a *. im b) +. (im a *. re b) }

let approx_equal ?(eps = 1e-9) a b =
  Float.abs (re a -. re b) <= eps && Float.abs (im a -. im b) <= eps

let type_name = "complex"
let external_rep = Vtype.Ttuple [ Vtype.Treal; Vtype.Treal ]

let encode_common c = Value.tuple [ Value.real (re c); Value.real (im c) ]

let decode_parts v =
  match v with
  | Value.Tuple [ Value.Real x; Value.Real y ] -> (x, y)
  | _ -> raise (Transmit.Decode_failure "complex: malformed external rep")

let transmit_cartesian : t Transmit.impl =
  (module struct
    type nonrec t = t

    let type_name = type_name
    let external_rep = external_rep
    let encode = encode_common

    let decode v =
      let x, y = decode_parts v in
      Cartesian { re = x; im = y }
  end)

let transmit_polar : t Transmit.impl =
  (module struct
    type nonrec t = t

    let type_name = type_name
    let external_rep = external_rep
    let encode = encode_common

    let decode v =
      let x, y = decode_parts v in
      Polar { modulus = Float.hypot x y; arg = Float.atan2 y x }
  end)
