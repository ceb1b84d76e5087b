type t = { node : int; guardian : int; index : int; uid : int }

let make ~node ~guardian ~index ~uid = { node; guardian; index; uid }
let equal a b = a.node = b.node && a.guardian = b.guardian && a.index = b.index && a.uid = b.uid

let compare a b =
  let c = Int.compare a.node b.node in
  if c <> 0 then c
  else
    let c = Int.compare a.guardian b.guardian in
    if c <> 0 then c
    else
      let c = Int.compare a.index b.index in
      if c <> 0 then c else Int.compare a.uid b.uid

let pp fmt t = Format.fprintf fmt "port<n%d.g%d.p%d#%d>" t.node t.guardian t.index t.uid
let to_string t = Format.asprintf "%a" pp t
