(* The committed allowlist of grandfathered findings, one Finding.key per
   line.  Keys omit line numbers (see Finding.key), so entries survive
   unrelated edits; a key matches every current finding with the same
   (rule, file, context, token), which deliberately collapses multiple
   occurrences inside one binding into one entry. *)

type t = { keys : (string, bool ref) Hashtbl.t }

let empty () = { keys = Hashtbl.create 16 }

let add t key = if not (Hashtbl.mem t.keys key) then Hashtbl.replace t.keys key (ref false)

let lines path =
  if Sys.file_exists path then String.split_on_char '\n' (Discover.read_file path) else []

let is_comment line = String.starts_with ~prefix:"#" (String.trim line)

let load ~path =
  let t = empty () in
  List.iter
    (fun line ->
      let line = String.trim line in
      if String.length line > 0 && not (is_comment line) then add t line)
    (lines path);
  t

let apply t findings =
  List.iter
    (fun f ->
      match Hashtbl.find_opt t.keys (Finding.key f) with
      | Some hit ->
          hit := true;
          f.Finding.baselined <- true
      | None -> ())
    findings

(* Entries that matched nothing: the grandfathered finding was fixed (or its
   binding renamed).  They fail the build; --update-baseline prunes them. *)
let stale t =
  Hashtbl.fold (fun key hit acc -> if !hit then acc else key :: acc) t.keys []
  |> List.sort String.compare

let header =
  [
    "# dcp_lint baseline: grandfathered findings, one `rule file context/token` key";
    "# per line.  Regenerate with `dcp_lint.exe --update-baseline` after reviewing";
    "# that any new entry really is benign (see DESIGN.md, \"Lint\"); it keeps";
    "# these comment lines.  A stale entry (matching nothing) fails the build.";
  ]

(* The comment lines carry the review notes: keep them, rewrite the keys. *)
let save ~path findings =
  let comments = if Sys.file_exists path then List.filter is_comment (lines path) else header in
  let keys = List.sort_uniq String.compare (List.map Finding.key findings) in
  Out_channel.with_open_bin path (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) (comments @ keys))
