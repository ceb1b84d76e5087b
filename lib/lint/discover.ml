type src = { path : string; lib_dir : string option }

let list_dir path =
  if Sys.file_exists path && Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
  else []

(* [dirs] entries are root-relative ("lib", "bin", "examples"); under "lib"
   every subdirectory is a library whose modules carry layer restrictions.
   Readdir order is unspecified, so everything is sorted: the scan order —
   and therefore the report — is deterministic. *)
let files ~ext ~root ~dirs =
  let is_src name = Filename.check_suffix name ext && name.[0] <> '.' in
  List.concat_map
    (fun dir ->
      let abs = Filename.concat root dir in
      if String.equal dir "lib" then
        List.concat_map
          (fun sub ->
            if sub.[0] = '.' || not (Sys.is_directory (Filename.concat abs sub)) then []
            else
              list_dir (Filename.concat abs sub)
              |> List.filter is_src
              |> List.map (fun name ->
                     { path = String.concat "/" [ dir; sub; name ]; lib_dir = Some sub }))
          (list_dir abs)
      else
        list_dir abs |> List.filter is_src
        |> List.map (fun name -> { path = String.concat "/" [ dir; name ]; lib_dir = None }))
    dirs

let ml_files ~root ~dirs = files ~ext:".ml" ~root ~dirs
let mli_files ~root = files ~ext:".mli" ~root ~dirs:[ "lib" ]

(* Hygiene: every library module declares its interface.  Implementation
   files without an [.mli] leak representation types across guardian
   boundaries. *)
let missing_mli ~root srcs =
  List.filter_map
    (fun src ->
      match src.lib_dir with
      | None -> None
      | Some _ ->
          let mli = Filename.concat root (Filename.chop_suffix src.path ".ml" ^ ".mli") in
          if Sys.file_exists mli then None
          else
            Some
              (Finding.v ~rule:"mli-missing" ~file:src.path ~line:1 ~col:0 ~context:"module"
                 ~token:(Filename.basename src.path)
                 (Printf.sprintf "library module %s has no .mli interface" src.path)))
    srcs

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let contents = really_input_string ic n in
  close_in ic;
  contents
