(* CRC-32 (IEEE 802.3, reflected), computed entirely in native [int]
   arithmetic — the running CRC lives in an immediate, so the inner loop
   allocates nothing — with a slicing-by-8 main loop.

   The 8x256 table set is built eagerly at module initialisation, as one
   flat array: entries [256k .. 256k+255] are table [k], where table 0 is
   the classic byte-at-a-time table and table [k] is table [k-1] advanced
   through one zero byte.  Eight input bytes then fold into the CRC with
   eight independent table loads and xors per iteration instead of eight
   serial byte steps.  Every index is a byte plus a constant below 2048,
   so the loads are unchecked. *)

let polynomial = 0xedb88320

let table =
  let t = Array.make 2048 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then (!c lsr 1) lxor polynomial else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.((256 * (k - 1)) + n) in
      t.((256 * k) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

(* [k] is a table number, [b] a byte. *)
let load k b = Array.unsafe_get table ((k lsl 8) lor b)

let init = 0xffffffffl
let finalize crc = Int32.logxor crc 0xffffffffl

let update crc ch =
  let c = Int32.to_int crc land 0xffffffff in
  Int32.of_int ((c lsr 8) lxor load 0 ((c lxor Char.code ch) land 0xff))

(* Bounds are the caller's responsibility; [pos, pos+len) must be valid. *)
let digest_raw s pos len =
  let crc = ref 0xffffffff in
  let i = ref pos in
  let fin = pos + len in
  let last8 = fin - 8 in
  while !i <= last8 do
    let j = !i in
    let b0 = Char.code (String.unsafe_get s j)
    and b1 = Char.code (String.unsafe_get s (j + 1))
    and b2 = Char.code (String.unsafe_get s (j + 2))
    and b3 = Char.code (String.unsafe_get s (j + 3))
    and b4 = Char.code (String.unsafe_get s (j + 4))
    and b5 = Char.code (String.unsafe_get s (j + 5))
    and b6 = Char.code (String.unsafe_get s (j + 6))
    and b7 = Char.code (String.unsafe_get s (j + 7)) in
    let x = !crc lxor (b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24)) in
    crc :=
      load 7 (x land 0xff)
      lxor load 6 ((x lsr 8) land 0xff)
      lxor load 5 ((x lsr 16) land 0xff)
      lxor load 4 (x lsr 24)
      lxor load 3 b4
      lxor load 2 b5
      lxor load 1 b6
      lxor load 0 b7;
    i := j + 8
  done;
  while !i < fin do
    crc := (!crc lsr 8) lxor load 0 ((!crc lxor Char.code (String.unsafe_get s !i)) land 0xff);
    incr i
  done;
  Int32.of_int (!crc lxor 0xffffffff)

let digest_substring s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Crc32.digest_substring";
  digest_raw s pos len

let digest_sub b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then invalid_arg "Crc32.digest_sub";
  digest_raw (Bytes.unsafe_to_string b) pos len

let digest_string s = digest_raw s 0 (String.length s)
