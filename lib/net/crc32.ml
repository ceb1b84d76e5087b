(* CRC-32 (IEEE 802.3, reflected), computed entirely in native [int]
   arithmetic — the running CRC lives in an immediate, so the inner loop
   allocates nothing — with a slicing-by-8 main loop.

   The 8x256 table set is built eagerly at module initialisation:
   [tables.(0)] is the classic byte-at-a-time table and [tables.(k)] is
   [tables.(k-1)] advanced through one zero byte, so eight input bytes fold
   into the CRC with eight independent table loads and xors per iteration
   instead of eight serial byte steps. *)

let polynomial = 0xedb88320

let tables =
  let t = Array.make_matrix 8 256 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then (!c lsr 1) lxor polynomial else !c lsr 1
    done;
    t.(0).(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(k - 1).(n) in
      t.(k).(n) <- (prev lsr 8) lxor t.(0).(prev land 0xff)
    done
  done;
  t

let t0 = tables.(0)
let t1 = tables.(1)
let t2 = tables.(2)
let t3 = tables.(3)
let t4 = tables.(4)
let t5 = tables.(5)
let t6 = tables.(6)
let t7 = tables.(7)

let init = 0xffffffffl
let finalize crc = Int32.logxor crc 0xffffffffl

let update crc ch =
  let c = Int32.to_int crc land 0xffffffff in
  Int32.of_int ((c lsr 8) lxor t0.((c lxor Char.code ch) land 0xff))

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
      t7.(x land 0xff)
      lxor t6.((x lsr 8) land 0xff)
      lxor t5.((x lsr 16) land 0xff)
      lxor t4.(x lsr 24)
      lxor t3.(b4)
      lxor t2.(b5)
      lxor t1.(b6)
      lxor t0.(b7);
    i := j + 8
  done;
  while !i < fin do
    crc := (!crc lsr 8) lxor t0.((!crc lxor Char.code (String.unsafe_get s !i)) land 0xff);
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
