type config = { int_bits : int; max_string : int; max_message : int }

let default_config = { int_bits = 63; max_string = 1 lsl 20; max_message = 4 lsl 20 }
let config_1979 = { int_bits = 24; max_string = 4096; max_message = 65536 }

let[@inline] int_in_bounds config i =
  if config.int_bits >= 63 then true
  else
    let limit = 1 lsl (config.int_bits - 1) in
    i >= -limit && i < limit

type error =
  | Int_out_of_bounds of int
  | String_too_long of int
  | Message_too_long of int
  | Malformed of string

let pp_error fmt = function
  | Int_out_of_bounds i -> Format.fprintf fmt "integer %d exceeds the system-wide bounds" i
  | String_too_long n -> Format.fprintf fmt "string of %d bytes exceeds the system-wide limit" n
  | Message_too_long n -> Format.fprintf fmt "message of %d bytes exceeds the system-wide limit" n
  | Malformed reason -> Format.fprintf fmt "malformed message: %s" reason

exception Codec_error of error

(* Wire format: one tag byte per node, then payload.  Integers are zigzag
   varints; floats are 8-byte IEEE; strings and collections are
   length-prefixed (varint). *)

let tag_unit = 0
let tag_false = 1
let tag_true = 2
let tag_int = 3
let tag_real = 4
let tag_str = 5
let tag_list = 6
let tag_tuple = 7
let tag_record = 8
let tag_none = 9
let tag_some = 10
let tag_port = 11
let tag_token = 12
let tag_named = 13

let zigzag i = (i lsl 1) lxor (i asr 62)
let unzigzag u = (u lsr 1) lxor (-(u land 1))

(* The varint loops are top-level functions, not local closures over the
   buffer or reader, so a varint costs no allocation. *)
let rec write_uvarint_bits buf u =
  if u land lnot 0x7f = 0 then Buffer.add_char buf (Char.chr u)
  else begin
    Buffer.add_char buf (Char.chr ((u land 0x7f) lor 0x80));
    write_uvarint_bits buf (u lsr 7)
  end

let write_varint buf i = write_uvarint_bits buf (zigzag i)

let write_uvarint buf u =
  if u < 0 then raise (Codec_error (Malformed "negative length"));
  write_uvarint_bits buf u

let write_int64 buf v =
  for shift = 0 to 7 do
    Buffer.add_char buf (Char.chr (Int64.to_int (Int64.shift_right_logical v (shift * 8)) land 0xff))
  done

(* The payloads that follow a tag, each with its check; the in-place
   writer below shares them with [encode_value]. *)
let write_port buf p =
  write_varint buf p.Port_name.node;
  write_varint buf p.Port_name.guardian;
  write_varint buf p.Port_name.index;
  write_varint buf p.Port_name.uid

let write_str config buf s =
  if String.length s > config.max_string then
    raise (Codec_error (String_too_long (String.length s)));
  write_uvarint buf (String.length s);
  Buffer.add_string buf s

let write_int config buf i =
  if not (int_in_bounds config i) then raise (Codec_error (Int_out_of_bounds i));
  write_varint buf i

let rec encode_value config buf v =
  match v with
  | Value.Unit -> Buffer.add_char buf (Char.chr tag_unit)
  | Value.Bool false -> Buffer.add_char buf (Char.chr tag_false)
  | Value.Bool true -> Buffer.add_char buf (Char.chr tag_true)
  | Value.Int i ->
      Buffer.add_char buf (Char.chr tag_int);
      write_int config buf i
  | Value.Real r ->
      Buffer.add_char buf (Char.chr tag_real);
      write_int64 buf (Int64.bits_of_float r)
  | Value.Str s ->
      Buffer.add_char buf (Char.chr tag_str);
      write_str config buf s
  | Value.Listv items ->
      Buffer.add_char buf (Char.chr tag_list);
      write_items config buf items
  | Value.Tuple items ->
      Buffer.add_char buf (Char.chr tag_tuple);
      write_items config buf items
  | Value.Record fields ->
      Buffer.add_char buf (Char.chr tag_record);
      write_uvarint buf (List.length fields);
      encode_fields config buf fields
  | Value.Option None -> Buffer.add_char buf (Char.chr tag_none)
  | Value.Option (Some inner) ->
      Buffer.add_char buf (Char.chr tag_some);
      encode_value config buf inner
  | Value.Portv p ->
      Buffer.add_char buf (Char.chr tag_port);
      write_port buf p
  | Value.Tokenv tok ->
      let owner, body, tag = Token.to_wire tok in
      Buffer.add_char buf (Char.chr tag_token);
      write_varint buf owner;
      write_int64 buf body;
      write_int64 buf tag
  | Value.Named (name, rep) ->
      Buffer.add_char buf (Char.chr tag_named);
      write_uvarint buf (String.length name);
      Buffer.add_string buf name;
      encode_value config buf rep

and write_items config buf items =
  write_uvarint buf (List.length items);
  encode_items config buf items

and encode_items config buf = function
  | [] -> ()
  | v :: rest ->
      encode_value config buf v;
      encode_items config buf rest

and encode_fields config buf = function
  | [] -> ()
  | (name, fv) :: rest ->
      write_uvarint buf (String.length name);
      Buffer.add_string buf name;
      encode_value config buf fv;
      encode_fields config buf rest

(* [encoded_size]'s walk: the byte count [encode_value] would write, with
   the same checks raised at the same node, and nothing written. *)
let rec uvarint_size_from n u =
  if u land lnot 0x7f = 0 then n else uvarint_size_from (n + 1) (u lsr 7)

let uvarint_size u = uvarint_size_from 1 u
let varint_size i = uvarint_size (zigzag i)

let port_size p =
  varint_size p.Port_name.node + varint_size p.Port_name.guardian
  + varint_size p.Port_name.index + varint_size p.Port_name.uid

let int_size config i =
  if not (int_in_bounds config i) then raise (Codec_error (Int_out_of_bounds i));
  varint_size i

let str_size config s =
  let len = String.length s in
  if len > config.max_string then raise (Codec_error (String_too_long len));
  uvarint_size len + len

let rec size_value config acc v =
  match v with
  | Value.Unit | Value.Bool _ | Value.Option None -> acc + 1
  | Value.Int i -> acc + 1 + int_size config i
  | Value.Real _ -> acc + 9
  | Value.Str s -> acc + 1 + str_size config s
  | Value.Listv items | Value.Tuple items ->
      size_items config (acc + 1 + uvarint_size (List.length items)) items
  | Value.Record fields -> size_fields config (acc + 1 + uvarint_size (List.length fields)) fields
  | Value.Option (Some inner) -> size_value config (acc + 1) inner
  | Value.Portv p -> acc + 1 + port_size p
  | Value.Tokenv tok -> acc + 17 + varint_size (Token.owner tok)
  | Value.Named (name, rep) ->
      let len = String.length name in
      size_value config (acc + 1 + uvarint_size len + len) rep

and size_items config acc = function
  | [] -> acc
  | v :: rest -> size_items config (size_value config acc v) rest

and size_fields config acc = function
  | [] -> acc
  | (name, fv) :: rest ->
      let len = String.length name in
      size_fields config (size_value config (acc + uvarint_size len + len) fv) rest

type reader = { mutable input : string; mutable pos : int }

(* [pos] starts inside the input or at its end and only grows, so one
   comparison bounds the load. *)
let[@inline] read_byte r =
  let pos = r.pos in
  if pos >= String.length r.input then raise (Codec_error (Malformed "truncated input"));
  r.pos <- pos + 1;
  Char.code (String.unsafe_get r.input pos)

let rec read_uvarint_from r shift acc =
  if shift > 62 then raise (Codec_error (Malformed "varint too long"));
  let b = read_byte r in
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b land 0x80 = 0 then acc else read_uvarint_from r (shift + 7) acc

(* Most varints (counts, lengths, small ints) are one byte. *)
let[@inline] read_uvarint r =
  let b = read_byte r in
  if b land 0x80 = 0 then b else read_uvarint_from r 7 (b land 0x7f)

let[@inline] read_varint r = unzigzag (read_uvarint r)

let read_int64 r =
  let v = ref 0L in
  for shift = 0 to 7 do
    let b = read_byte r in
    v := Int64.logor !v (Int64.shift_left (Int64.of_int b) (shift * 8))
  done;
  !v

let read_string r =
  let len = read_uvarint r in
  (* compare against the space left, never [r.pos + len]: an adversarial
     varint can make that sum wrap negative and slip past the bound *)
  if len < 0 || len > String.length r.input - r.pos then
    raise (Codec_error (Malformed "truncated string"));
  let s = String.sub r.input r.pos len in
  r.pos <- r.pos + len;
  s

(* A collection's element count; a varint can decode negative. *)
let[@inline] read_count r =
  let n = read_uvarint r in
  if n < 0 then raise (Codec_error (Malformed "negative length"));
  n

(* The payloads that follow a tag, each with its check; the in-place
   reader shares them with [decode_value]. *)
let read_port r =
  let node = read_varint r in
  let guardian = read_varint r in
  let index = read_varint r in
  let uid = read_varint r in
  Port_name.make ~node ~guardian ~index ~uid

let read_str config r =
  let s = read_string r in
  if String.length s > config.max_string then
    raise (Codec_error (String_too_long (String.length s)));
  s

let[@inline] read_int config r =
  let i = read_varint r in
  if not (int_in_bounds config i) then raise (Codec_error (Int_out_of_bounds i));
  i

let rec decode_value config r =
  let tag = read_byte r in
  if tag = tag_unit then Value.Unit
  else if tag = tag_false then Value.Bool false
  else if tag = tag_true then Value.Bool true
  else if tag = tag_int then Value.Int (read_int config r)
  else if tag = tag_real then Value.Real (Int64.float_of_bits (read_int64 r))
  else if tag = tag_str then Value.Str (read_str config r)
  else if tag = tag_list then Value.Listv (read_items config r)
  else if tag = tag_tuple then Value.Tuple (read_items config r)
  else if tag = tag_record then Value.Record (decode_fields config r (read_count r))
  else if tag = tag_none then Value.Option None
  else if tag = tag_some then Value.Option (Some (decode_value config r))
  else if tag = tag_port then Value.Portv (read_port r)
  else if tag = tag_token then begin
    let owner = read_varint r in
    let body = read_int64 r in
    let tag' = read_int64 r in
    Value.Tokenv (Token.of_wire (owner, body, tag'))
  end
  else if tag = tag_named then begin
    let name = read_string r in
    Value.Named (name, decode_value config r)
  end
  else raise (Codec_error (Malformed (Printf.sprintf "unknown tag %d" tag)))

and read_items config r = decode_items config r (read_count r)

(* Lists and records are built in order, in constant stack (tail modulo
   cons): a list is as long as the input admits, one byte per element. *)
and[@tail_mod_cons] decode_items config r n =
  if n = 0 then []
  else
    let v = decode_value config r in
    v :: decode_items config r (n - 1)

and[@tail_mod_cons] decode_fields config r n =
  if n = 0 then []
  else
    let name = read_string r in
    let field = (name, decode_value config r) in
    field :: decode_fields config r (n - 1)

let check_length config input =
  if String.length input > config.max_message then
    raise (Codec_error (Message_too_long (String.length input)))

let reader config input =
  check_length config input;
  { input; pos = 0 }

let reread r config input =
  check_length config input;
  r.input <- input;
  r.pos <- 0

let at_end r = r.pos = String.length r.input
let position r = r.pos
let input r = r.input

let reader_at input pos =
  if pos < 0 || pos > String.length input then invalid_arg "Codec.reader_at";
  { input; pos }

let rec matches_at input pos run i =
  i = String.length run
  || Char.equal (String.unsafe_get input (pos + i)) (String.unsafe_get run i)
     && matches_at input pos run (i + 1)

let bytes_at input pos s =
  pos >= 0 && String.length s <= String.length input - pos && matches_at input pos s 0

let skip_run r run =
  if bytes_at r.input r.pos run then begin
    r.pos <- r.pos + String.length run;
    true
  end
  else false

(* ---- stepping over typed values ----

   A walk makes the checks and refusals of Command's typed readers, in
   their order, without building what they read.  It lives here, beside
   [read_byte], so that its byte loop makes no call across modules. *)

let skip_str config r =
  let len = read_uvarint r in
  if len < 0 || len > String.length r.input - r.pos then
    raise (Codec_error (Malformed "truncated string"));
  if len > config.max_string then raise (Codec_error (String_too_long len));
  r.pos <- r.pos + len

let skip_port r =
  ignore (read_varint r : int);
  ignore (read_varint r : int);
  ignore (read_varint r : int);
  ignore (read_varint r : int)

let rec skip_value config r (t : Vtype.t) =
  match t with
  | Tint -> read_byte r = tag_int && (ignore (read_int config r : int); true)
  | Tstr -> read_byte r = tag_str && (skip_str config r; true)
  | Tport -> read_byte r = tag_port && (skip_port r; true)
  | Tany -> (ignore (decode_value config r : Value.t); true)
  | Toption elt ->
      let tag = read_byte r in
      tag = tag_none || (tag = tag_some && skip_value config r elt)
  | Tlist elt -> read_byte r = tag_list && skip_typed config r elt (read_count r)
  | Ttuple elts ->
      read_byte r = tag_tuple && read_count r = List.length elts && skip_each config r elts
  | Tunit | Tbool | Treal | Trecord _ | Ttoken | Tnamed _ ->
      invalid_arg "Codec.skip_typed: a type with no typed reader"

and skip_typed config r t n = n = 0 || (skip_value config r t && skip_typed config r t (n - 1))

and skip_each config r = function
  | [] -> true
  | t :: rest -> skip_value config r t && skip_each config r rest

(* An encoder owns a scratch buffer reused across calls, so hot senders
   (the runtime encodes every message in the world) stop allocating and
   growing a fresh Buffer per message; only the final output string is
   allocated. *)
type encoder = { enc_config : config; scratch : Buffer.t }

let encoder ?(config = default_config) () = { enc_config = config; scratch = Buffer.create 256 }
let encoder_config enc = enc.enc_config
let start enc = Buffer.clear enc.scratch
let add_run enc run = Buffer.add_string enc.scratch run
let add_sub enc s off len = Buffer.add_substring enc.scratch s off len
let add_port enc p = write_port enc.scratch p
let add_str enc s = write_str enc.enc_config enc.scratch s
let add_int enc i = write_int enc.enc_config enc.scratch i
let add_varint enc i = write_varint enc.scratch i
let add_items enc items = write_items enc.enc_config enc.scratch items

let finish enc =
  let buf = enc.scratch in
  if Buffer.length buf > enc.enc_config.max_message then
    Error (Message_too_long (Buffer.length buf))
  else Ok (Buffer.contents buf)

let add_byte enc b = Buffer.add_char enc.scratch (Char.unsafe_chr b)
let add_count enc n = write_uvarint enc.scratch n
let add_value enc v = encode_value enc.enc_config enc.scratch v

let encode_with enc v =
  start enc;
  match encode_value enc.enc_config enc.scratch v with
  | () -> finish enc
  | exception Codec_error e -> Error e

let encode_with_exn enc v =
  match encode_with enc v with Ok s -> s | Error e -> raise (Codec_error e)

let encode ?config v = encode_with (encoder ?config ()) v

let decode ?(config = default_config) s =
  match
    let r = reader config s in
    let v = decode_value config r in
    if not (at_end r) then raise (Codec_error (Malformed "trailing bytes"));
    v
  with
  | v -> Ok v
  | exception Codec_error e -> Error e

let record_head fields =
  let buf = Buffer.create 4 in
  Buffer.add_char buf (Char.chr tag_record);
  write_uvarint buf fields;
  Buffer.contents buf

(* A value's tag is the first byte [encode_value] writes for it. *)
let tag v =
  let one = Buffer.create 16 in
  encode_value default_config one v;
  Char.code (Buffer.nth one 0)

let field_head name v =
  let buf = Buffer.create 16 in
  write_uvarint buf (String.length name);
  Buffer.add_string buf name;
  let rec tags v =
    Buffer.add_char buf (Char.chr (tag v));
    match v with Value.Option (Some inner) -> tags inner | _ -> ()
  in
  tags v;
  Buffer.contents buf

let encode_exn ?config v =
  match encode ?config v with Ok s -> s | Error e -> raise (Codec_error e)

let decode_exn ?config s =
  match decode ?config s with Ok v -> v | Error e -> raise (Codec_error e)

let count_size = uvarint_size
let value_size config v = size_value config 0 v
let read_value = decode_value

let encoded_size ?(config = default_config) v =
  match size_value config 0 v with
  | n -> if n > config.max_message then Error (Message_too_long n) else Ok n
  | exception Codec_error e -> Error e
