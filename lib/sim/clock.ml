type time = int

let zero = 0
let us t = t * 1_000
let ms t = t * 1_000_000
let s t = t * 1_000_000_000
let of_float_s x = int_of_float (Float.round (x *. 1e9))
let to_float_s t = float_of_int t /. 1e9
let to_float_ms t = float_of_int t /. 1e6
let to_float_us t = float_of_int t /. 1e3
let add = ( + )
let diff = ( - )
let compare = Int.compare

let pp fmt t =
  if t < 1_000 then Format.fprintf fmt "%dns" t
  else if t < 1_000_000 then Format.fprintf fmt "%.3fus" (to_float_us t)
  else if t < 1_000_000_000 then Format.fprintf fmt "%.3fms" (to_float_ms t)
  else Format.fprintf fmt "%.3fs" (to_float_s t)
