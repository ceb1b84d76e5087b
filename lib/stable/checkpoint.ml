module Crc32 = Dcp_net.Crc32

(* Frame: body ^ 8 lowercase-hex chars of CRC32(body).
   Body:  "C<upto>;<n>;" then n pairs, each "<klen>:<key><vlen>:<value>".
   All lengths are decimal, every field length-prefixed, so keys and values
   may contain any byte.  Parsing is total: every malformed shape answers
   [None]. *)

(* The frame is sized first and written into one buffer of that size; the
   CRC is taken over the body in place and written after it. *)
let field_width s = Decimal.width (String.length s) + 1 + String.length s

let put_field b pos s =
  let len = String.length s in
  Decimal.put b pos len;
  let pos = pos + Decimal.width len in
  Bytes.unsafe_set b pos ':';
  Bytes.blit_string s 0 b (pos + 1) len;
  pos + 1 + len

let hex = "0123456789abcdef"

let make ~upto pairs =
  let count = List.length pairs in
  let head = 3 + Decimal.width upto + Decimal.width count in
  let body =
    List.fold_left (fun acc (k, v) -> acc + field_width k + field_width v) head pairs
  in
  let b = Bytes.create (body + 8) in
  Bytes.unsafe_set b 0 'C';
  Decimal.put b 1 upto;
  let pos = 1 + Decimal.width upto in
  Bytes.unsafe_set b pos ';';
  Decimal.put b (pos + 1) count;
  Bytes.unsafe_set b (head - 1) ';';
  ignore (List.fold_left (fun pos (k, v) -> put_field b (put_field b pos k) v) head pairs);
  let crc = Crc32.digest_sub b ~pos:0 ~len:body in
  for i = 0 to 7 do
    Bytes.unsafe_set b (body + i) hex.[(crc lsr (4 * (7 - i))) land 0xf]
  done;
  Bytes.unsafe_to_string b

(* The length of an intact frame's body, which is the blob's prefix
   before the CRC: the CRC is checked over it in place, not over a copy. *)
let framed blob =
  let n = String.length blob - 8 in
  if n < 1 then None
  else
    match int_of_string_opt ("0x" ^ String.sub blob n 8) with
    | Some crc when crc = Crc32.digest_substring blob ~pos:0 ~len:n -> Some n
    | Some _ | None -> None

(* The readers parse the body in place: the blob's first [n] bytes.

   Read a decimal integer starting at [!pos], consuming the trailing
   [stop] char.  Digits only — no sign, no 0x — so lengths can't go
   negative or overflow silently on realistic inputs. *)
let read_int blob n pos ~stop =
  let start = !pos in
  while !pos < n && blob.[!pos] >= '0' && blob.[!pos] <= '9' do
    incr pos
  done;
  if !pos = start || !pos >= n || blob.[!pos] <> stop then None
  else
    match int_of_string_opt (String.sub blob start (!pos - start)) with
    | Some v ->
        incr pos;
        Some v
    | None -> None

let read_field blob n pos =
  match read_int blob n pos ~stop:':' with
  | None -> None
  | Some len ->
      if len < 0 || !pos + len > n then None
      else begin
        let field = String.sub blob !pos len in
        pos := !pos + len;
        Some field
      end

let restore blob =
  match framed blob with
  | None -> None
  | Some n ->
      if blob.[0] <> 'C' then None
      else begin
        let pos = ref 1 in
        match read_int blob n pos ~stop:';' with
        | None -> None
        | Some upto -> (
            match read_int blob n pos ~stop:';' with
            | None -> None
            | Some count ->
                let rec pairs k acc =
                  if k = 0 then if !pos = n then Some (upto, List.rev acc) else None
                  else
                    match read_field blob n pos with
                    | None -> None
                    | Some key -> (
                        match read_field blob n pos with
                        | None -> None
                        | Some value -> pairs (k - 1) ((key, value) :: acc))
                in
                if count < 0 then None else pairs count [])
      end

let upto blob =
  match framed blob with
  | None -> None
  | Some n -> if blob.[0] <> 'C' then None else read_int blob n (ref 1) ~stop:';'
