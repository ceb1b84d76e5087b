open Dcp_wire

(* ---- stamps ---- *)

type stamp = int * int

let stamp_compare (c1, o1) (c2, o2) =
  let c = Int.compare c1 c2 in
  if c <> 0 then c else Int.compare o1 o2

let stamp_value (counter, origin) = Value.tuple [ Value.int counter; Value.int origin ]

(* Counters start at 1 (a replica's first write increments its clock from 0)
   and origins are guardian ids, so both components of a well-formed stamp
   are non-negative and the counter strictly positive.  Anything else is
   adversarial or corrupt and must be droppable, not fatal (§3.4: delivery
   is best-effort; a serve loop that can be crashed by one bad message turns
   loss tolerance into a denial of service). *)
let stamp_of_value v =
  match v with
  | Value.Tuple [ Value.Int counter; Value.Int origin ] when counter > 0 && origin >= 0 ->
      Some (counter, origin)
  | _ -> None

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

let entry_value (key, stamp) = Value.tuple [ Value.str key; stamp_value stamp ]

let entry_of_value v =
  match v with
  | Value.Tuple [ Value.Str key; stamp ] -> (
      match stamp_of_value stamp with Some s -> Some (key, s) | None -> None)
  | _ -> None

let entry_compare (k1, _) (k2, _) = String.compare k1 k2

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

let value_size v =
  match Codec.encoded_size v with Ok n -> n | Error _ -> max_int

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
