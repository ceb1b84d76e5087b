let rec digits n = if n < 10 then 1 else 1 + digits (n / 10)

(* Negative numbers never frame a record (lengths and log positions); they
   take the allocating path so that every int still round-trips. *)
let width n = if n >= 0 then digits n else String.length (string_of_int n)

let put b pos n =
  if n < 0 then Bytes.blit_string (string_of_int n) 0 b pos (width n)
  else
    let rec go n i =
      Bytes.unsafe_set b i (Char.unsafe_chr (48 + (n mod 10)));
      if n >= 10 then go (n / 10) (i - 1)
    in
    go n (pos + digits n - 1)
