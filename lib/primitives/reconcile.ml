open Dcp_wire

(* ---- stamps ---- *)

type stamp = int * int

let stamp_compare (c1, o1) (c2, o2) =
  let c = Int.compare c1 c2 in
  if c <> 0 then c else Int.compare o1 o2

let stamp_value (counter, origin) = Value.tuple [ Value.int counter; Value.int origin ]

let stamp_to_string (counter, origin) = Printf.sprintf "%d.%d" counter origin

let stamp_of_string s =
  match String.index_opt s '.' with
  | None -> None
  | Some dot -> (
      match
        ( int_of_string_opt (String.sub s 0 dot),
          int_of_string_opt (String.sub s (dot + 1) (String.length s - dot - 1)) )
      with
      | Some counter, Some origin when counter > 0 && origin >= 0 -> Some (counter, origin)
      | _ -> None)

(* ---- digest entries and key windows ---- *)

let stamp_ty = Command.(pair int int)
let entry_ty = Command.(pair str stamp_ty)
let entry_value (key, stamp) = Value.tuple [ Value.str key; stamp_value stamp ]

let entry_compare (k1, _) (k2, _) = String.compare k1 k2

(* ---- table hashes ----

   A table's hash is the XOR of one 64-bit hash per entry, so adding an
   entry XORs its hash in and replacing one XORs the old hash out and the
   new one in: O(1) per [apply], independent of table size.  Each step of
   the entry hash goes through SplitMix64's finaliser, a bijection on 64
   bits that spreads every input bit over the output. *)

let mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let entry_hash (key, (counter, origin)) =
  let h = ref (mix (Int64.of_int (String.length key))) in
  String.iter (fun c -> h := mix (Int64.add !h (Int64.of_int (Char.code c)))) key;
  mix (Int64.add (mix (Int64.add !h (Int64.of_int counter))) (Int64.of_int origin))

let table_hash entries =
  List.fold_left (fun acc entry -> Int64.logxor acc (entry_hash entry)) 0L entries

(* Eight big-endian bytes: a string fits every codec configuration, where
   an [Int] would break the 24-bit bound of [Codec.config_1979]. *)
let hash_string h =
  let b = Bytes.create 8 in
  Bytes.set_int64_be b 0 h;
  Bytes.unsafe_to_string b

let hash_value h = Value.str (hash_string h)
let hash_of_string s = if String.length s = 8 then Some (String.get_int64_be s 0) else None

type window = { lo : string; hi : string option }

let window_ok { lo; hi } =
  match hi with None -> true | Some hi -> String.compare lo hi < 0

let in_window { lo; hi } key =
  String.compare lo key <= 0
  && match hi with None -> true | Some hi -> String.compare key hi < 0

(* ---- byte budgeting ----

   A sync message must respect a configurable byte budget.  The budget is
   measured against the Codec encoding of the message payload; the fixed
   [header_allowance] reserves room for the command, window bounds, list
   headers and routing envelope so that bounding the *entries* bounds the
   whole message.  Packing always takes at least one entry — a single entry
   whose encoding alone exceeds the budget is sent (oversized) rather than
   silently withheld forever, which would be a divergence bug; callers
   surface that case through a metric. *)

let default_budget = 32 * 1024
let header_allowance = 96

let entry_budget ~budget = Int.max 1 (budget - header_allowance)

let take_within ~budget ~size entries =
  let budget = entry_budget ~budget in
  let rec go used acc = function
    | [] -> (List.rev acc, [])
    | entry :: rest ->
        let s = size entry in
        if acc <> [] && used + s > budget then (List.rev acc, entry :: rest)
        else go (used + s) (entry :: acc) rest
  in
  go 0 [] entries

let chunks ~budget ~size entries =
  let rec go acc entries =
    match entries with
    | [] -> List.rev acc
    | _ ->
        let taken, rest = take_within ~budget ~size entries in
        go (taken :: acc) rest
  in
  go [] entries

(* ---- the table and its digest view ----

   A replica's table, kept sorted by key: each entry holds its value, its
   stamp, and the encoded size of its digest entry [(key, stamp)], so a
   digest window is read off the table without sorting or sizing it. *)

module Keys = Map.Make (String)

type 'v held = { value : 'v; entry : string * stamp; size : int }
type 'v table = 'v held Keys.t

let empty = Keys.empty
let entry_size entry = match Command.size_of entry_ty entry with Ok n -> n | Error _ -> max_int
let find table key = Option.map (fun h -> (h.value, snd h.entry)) (Keys.find_opt key table)

let update table ~key ~value ~stamp =
  let held = Keys.find_opt key table in
  match held with
  | Some h when stamp_compare (snd h.entry) stamp >= 0 -> None
  | _ ->
      let entry = (key, stamp) in
      let table = Keys.add key { value; entry; size = entry_size entry } table in
      Some (table, Option.map (fun h -> snd h.entry) held)

(* A window is read by one fold over the table from its first key, which
   costs less than a sequence from the window's start (an allocation per
   entry) on tables a window mostly covers; the fold stops by raising the
   part already read. *)
exception Window_full of (string * stamp) list * string
exception Window_end of (string * stamp) list

let take_window ~budget table ~from =
  let budget = entry_budget ~budget in
  match
    Keys.fold
      (fun key h (used, taken) ->
        if String.compare key from < 0 then (used, taken)
        else if taken <> [] && used + h.size > budget then raise_notrace (Window_full (taken, key))
        else (used + h.size, h.entry :: taken))
      table (0, [])
  with
  | _, taken -> (List.rev taken, None)
  | exception Window_full (taken, next) -> (List.rev taken, Some next)

let held_in table window =
  match
    Keys.fold
      (fun key h held ->
        if String.compare key window.lo < 0 then held
        else if in_window window key then h.entry :: held
        else raise_notrace (Window_end held))
      table []
  with
  | held -> List.rev held
  | exception Window_end held -> List.rev held

let view table = Keys.fold (fun _ h acc -> (fst h.entry, snd h.entry, h.size) :: acc) table [] |> List.rev

(* ---- digest diffing ----

   [diff] is the heart of the pull half of anti-entropy.  Both inputs are
   sorted by key and describe the same window: [claimed] is what the digest
   sender says it holds, [held] is what the receiver holds there.  The
   receiver must

   - PULL every key the sender holds newer, or that the receiver lacks
     entirely (the half the one-way push protocol was missing: without it,
     two replicas that each missed different gossips stay divergent until an
     unrelated write), and
   - PUSH every key the receiver holds newer, or that the sender's digest
     lacks inside the window.

   A merge walk keeps it O(|claimed| + |held|) and deterministic. *)

type diff = {
  pulls : string list;  (** keys to request from the digest sender *)
  pushes : string list;  (** keys to send back to the digest sender *)
  max_claimed : stamp option;  (** largest stamp the digest asserted *)
}

(* The max_claimed observation rides the merge walk (one pass, not a
   separate fold over [claimed]), and equal-key/equal-stamp runs — the
   common case between converged replicas — fall through on physical
   equality before any comparison work.  Accumulation is plain cons +
   [List.rev]: an earlier variant kept reusable key arrays as a
   caller-owned scratch, but the write barrier on a long-lived array plus
   rebuilding the result lists measured ~40% slower than minor-heap cons
   on the 1k-entry bench row, so the scratch was dropped. *)
let diff ~claimed ~held =
  let have_max = ref false and max_c = ref 0 and max_o = ref 0 in
  (* Called exactly when the head of [claimed] is consumed, so every
     claimed entry is observed once. *)
  let observe (c, o) =
    if (not !have_max) || c > !max_c || (c = !max_c && o > !max_o) then begin
      have_max := true;
      max_c := c;
      max_o := o
    end
  in
  let rec walk claimed held pulls pushes =
    match (claimed, held) with
    | [], [] -> (List.rev pulls, List.rev pushes)
    | [], (key, _) :: held -> walk [] held pulls (key :: pushes)
    | (key, stamp) :: claimed, [] ->
        observe stamp;
        walk claimed [] (key :: pulls) pushes
    | (ckey, cstamp) :: crest, (hkey, hstamp) :: hrest ->
        let c = if ckey == hkey then 0 else String.compare ckey hkey in
        if c < 0 then begin
          observe cstamp;
          walk crest held (ckey :: pulls) pushes
        end
        else if c > 0 then walk claimed hrest pulls (hkey :: pushes)
        else begin
          observe cstamp;
          if cstamp == hstamp then walk crest hrest pulls pushes
          else
            let cc, co = cstamp and hc, ho = hstamp in
            let cmp = if cc <> hc then Int.compare cc hc else Int.compare co ho in
            if cmp > 0 then walk crest hrest (ckey :: pulls) pushes
            else if cmp < 0 then walk crest hrest pulls (hkey :: pushes)
            else walk crest hrest pulls pushes
        end
  in
  let pulls, pushes = walk claimed held [] [] in
  { pulls; pushes; max_claimed = (if !have_max then Some (!max_c, !max_o) else None) }
