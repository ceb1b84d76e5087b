type t = { mutable seed : int64; gamma : int64 }

let golden_gamma = 0x9e3779b97f4a7c15L

let mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL) in
  Int64.(logxor z (shift_right_logical z 31))

(* Variant finalizer used when deriving gammas, per the SplitMix paper. *)
let mix64_variant z =
  let z = Int64.(mul (logxor z (shift_right_logical z 33)) 0xff51afd7ed558ccdL) in
  let z = Int64.(mul (logxor z (shift_right_logical z 33)) 0xc4ceb9fe1a85ec53L) in
  Int64.(logxor z (shift_right_logical z 33))

let popcount64 x =
  let rec loop acc x =
    if Int64.equal x 0L then acc
    else loop (acc + 1) Int64.(logand x (sub x 1L))
  in
  loop 0 x

(* A gamma must be odd; gammas with too-regular bit patterns are adjusted. *)
let mix_gamma z =
  let z = Int64.logor (mix64_variant z) 1L in
  let n = popcount64 Int64.(logxor z (shift_right_logical z 1)) in
  if n < 24 then Int64.logxor z 0xaaaaaaaaaaaaaaaaL else z

let create seed = { seed = mix64 seed; gamma = golden_gamma }
let of_int seed = create (Int64.of_int seed)

let next_seed t =
  t.seed <- Int64.add t.seed t.gamma;
  t.seed

let next t = mix64 (next_seed t)

let split t =
  let seed = next_seed t in
  let gamma_src = next_seed t in
  { seed = mix64 seed; gamma = mix_gamma gamma_src }
