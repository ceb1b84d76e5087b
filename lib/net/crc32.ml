(* The kernel is crc32_stubs.c.  [init] builds its tables and picks its
   path once, at module initialisation, before any domain starts.  Bounds
   are checked here, so the C code only ever sees a slice inside its
   string. *)

external init : unit -> unit = "dcp_crc32_init" [@@noalloc]
external digest_raw : string -> int -> int -> int = "dcp_crc32_digest" [@@noalloc]

let () = init ()

let digest_substring s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Crc32.digest_substring";
  digest_raw s pos len

let digest_sub b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then invalid_arg "Crc32.digest_sub";
  digest_raw (Bytes.unsafe_to_string b) pos len

let digest_string s = digest_raw s 0 (String.length s)
