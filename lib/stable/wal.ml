module Crc32 = Dcp_net.Crc32

type lsn = int

type record = {
  lsn : lsn;
  mutable payload : string;
  mutable crc : int;
  mutable mirror : string option;  (** set at flush; aliases the payload until rot copies it *)
}

(* Records live oldest-first in a growable array, so [append] is amortized
   O(1).  [verified] counts the prefix of entries whose CRCs have already
   been checked intact; readers extend it instead of re-digesting the whole
   log, so [length]/[replay]/[records] cost one digest per *new* record
   overall.  Records past a damaged one are quarantine-skipped and
   re-checked per read until [scrub] drops the damage and folds them back
   into the verified prefix — damage only exists between a crash and the
   recovery scrub, so the steady state stays O(1) per call.

   [flushed] is the length of the flushed prefix: flush marks every current
   record, appends land after it, and truncation removes from the front, so
   flushed records always form a prefix. *)
type t = {
  mutable entries : record array;  (** slots [0, len) live, oldest first *)
  mutable len : int;
  mutable verified : int;
  mutable flushed : int;
  mutable payload_bytes : int;  (** over all live entries, damaged or not *)
  mutable first : lsn;
  mutable next : lsn;
}

let dummy = { lsn = -1; payload = ""; crc = 0; mirror = None }

let create () =
  {
    entries = Array.make 8 dummy;
    len = 0;
    verified = 0;
    flushed = 0;
    payload_bytes = 0;
    first = 0;
    next = 0;
  }

let append t payload =
  let lsn = t.next in
  t.next <- lsn + 1;
  if t.len = Array.length t.entries then begin
    let bigger = Array.make (2 * Array.length t.entries) dummy in
    Array.blit t.entries 0 bigger 0 t.len;
    t.entries <- bigger
  end;
  t.entries.(t.len) <- { lsn; payload; crc = Crc32.digest_string payload; mirror = None };
  t.len <- t.len + 1;
  t.payload_bytes <- t.payload_bytes + String.length payload;
  lsn

let intact r = r.crc = Crc32.digest_string r.payload

(* Extend the verified prefix: the records replay can emit without
   re-checking.  Stops at the first damaged record. *)
let verify t =
  while t.verified < t.len && intact t.entries.(t.verified) do
    t.verified <- t.verified + 1
  done;
  t.verified

(* Iterate intact records with index >= [from], skipping damaged ones.
   The verified prefix is free; past it the first record is known damaged
   and the rest are re-checked (only possible between crash and scrub). *)
let iter_live_from t from f =
  let n = verify t in
  for i = from to n - 1 do
    f t.entries.(i)
  done;
  if n < t.len then
    for i = Int.max from (n + 1) to t.len - 1 do
      let r = t.entries.(i) in
      if intact r then f r
    done

let length t =
  let n = ref 0 in
  iter_live_from t 0 (fun _ -> incr n);
  !n

let replay t f = iter_live_from t 0 (fun r -> f r.lsn r.payload)

(* First index holding LSN >= [lsn]; entries are LSN-sorted. *)
let start_index t ~lsn =
  let lo = ref 0 and hi = ref t.len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.entries.(mid).lsn < lsn then lo := mid + 1 else hi := mid
  done;
  !lo

let replay_from t ~lsn f =
  iter_live_from t (start_index t ~lsn) (fun r -> f r.lsn r.payload)

let records t =
  let acc = ref [] in
  iter_live_from t 0 (fun r -> acc := r.payload :: !acc);
  List.rev !acc

let truncate_prefix t ~upto =
  (* entries are in increasing-lsn order, so this removes a prefix *)
  let k = ref 0 in
  while !k < t.len && t.entries.(!k).lsn < upto do
    t.payload_bytes <- t.payload_bytes - String.length t.entries.(!k).payload;
    incr k
  done;
  let k = !k in
  if k > 0 then begin
    Array.blit t.entries k t.entries 0 (t.len - k);
    Array.fill t.entries (t.len - k) k dummy;
    t.len <- t.len - k;
    t.verified <- Int.max 0 (t.verified - k);
    t.flushed <- Int.max 0 (t.flushed - k)
  end;
  t.first <- Int.max t.first upto

let first_lsn t = t.first
let next_lsn t = t.next

let flush t =
  while t.flushed < t.len do
    let r = t.entries.(t.flushed) in
    r.mirror <- Some r.payload;
    t.flushed <- t.flushed + 1
  done

let flushed_count t = t.flushed
let unflushed t = t.len - t.flushed

type scrub_report = { salvaged : int; quarantined : int }

let scrub t =
  let salvaged = ref 0 and quarantined = ref 0 in
  let keep = ref 0 and kept_flushed = ref 0 in
  for i = 0 to t.len - 1 do
    let r = t.entries.(i) in
    let ok =
      if intact r then true
      else
        match r.mirror with
        | Some m when r.crc = Crc32.digest_string m ->
            r.payload <- m;
            incr salvaged;
            true
        | _ ->
            t.payload_bytes <- t.payload_bytes - String.length r.payload;
            incr quarantined;
            false
    in
    if ok then begin
      if i < t.flushed then incr kept_flushed;
      t.entries.(!keep) <- r;
      incr keep
    end
  done;
  if !keep < t.len then Array.fill t.entries !keep (t.len - !keep) dummy;
  t.len <- !keep;
  t.verified <- !keep;
  t.flushed <- !kept_flushed;
  { salvaged = !salvaged; quarantined = !quarantined }

let tear_unflushed t =
  if t.len > t.flushed then begin
    let last = t.len - 1 in
    let r = t.entries.(last) in
    r.crc <- r.crc lxor 0xffff_ffff;
    t.verified <- Int.min t.verified last;
    true
  end
  else false

let drop_unflushed t =
  let dropped = t.len - t.flushed in
  if dropped > 0 then begin
    for i = t.flushed to t.len - 1 do
      t.payload_bytes <- t.payload_bytes - String.length t.entries.(i).payload
    done;
    Array.fill t.entries t.flushed dropped dummy;
    t.len <- t.flushed;
    t.verified <- Int.min t.verified t.flushed
  end;
  dropped

let rot_record t disk ~index ~sector =
  let r = t.entries.(index) in
  if String.length r.payload > 0 then begin
    let b = Bytes.of_string r.payload in
    let pos = Disk.draw_byte disk ~len:(Bytes.length b) in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
    (* replace, never mutate: the mirror aliases the original string *)
    r.payload <- Bytes.to_string b
  end
  else r.crc <- r.crc lxor 0xffff_ffff;
  if sector then r.mirror <- None;
  t.verified <- Int.min t.verified index

let storage_bytes t = t.payload_bytes + (12 * t.len)
