(* The layer DAG from DESIGN.md: every in-repo library sits on a named
   layer, dune dependency edges must point strictly downward, and the four
   guardian application libraries may not reference each other at all (they
   share a layer, so any edge between them is a back-edge).  Ranks are the
   canonical chain wire -> net -> stable -> sim -> core -> primitives ->
   apps, refined by the actual dune graph: sim sits beside wire because net
   is built on the simulator's clock. *)

type lib = { dir : string; lib_name : string; deps : string list; rank : int }

let ranks =
  [
    ("rng", 0);
    ("json", 0);
    ("wire", 1);
    ("sim", 1);
    ("net", 2);
    ("stable", 3);
    ("core", 4);
    ("primitives", 5);
    ("assoc", 6);
    ("bank", 6);
    ("airline", 6);
    ("office", 6);
    ("check", 7);
    ("lint", 8);
  ]

let guardians = [ "assoc"; "bank"; "airline"; "office" ]
let is_guardian dir = List.mem dir guardians
let rank_of_dir dir = List.assoc_opt dir ranks

let dir_of_lib_name name =
  if String.length name > 4 && String.equal (String.sub name 0 4) "dcp_" then
    Some (String.sub name 4 (String.length name - 4))
  else None

let rank_of_module m =
  match dir_of_lib_name (String.lowercase_ascii m) with
  | Some dir -> rank_of_dir dir
  | None -> None

(* ---- minimal s-expression reader, just enough for dune files ---- *)

type sexp = Atom of string | List of sexp list

let parse_sexps source =
  let len = String.length source in
  let pos = ref 0 in
  let peek () = if !pos < len then Some source.[!pos] else None in
  let rec skip_blank () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        incr pos;
        skip_blank ()
    | Some ';' ->
        while !pos < len && source.[!pos] <> '\n' do
          incr pos
        done;
        skip_blank ()
    | _ -> ()
  in
  let atom () =
    let start = !pos in
    let stop c = match c with ' ' | '\t' | '\n' | '\r' | '(' | ')' | ';' -> true | _ -> false in
    while !pos < len && not (stop source.[!pos]) do
      incr pos
    done;
    Atom (String.sub source start (!pos - start))
  in
  let rec value () =
    skip_blank ();
    match peek () with
    | Some '(' ->
        incr pos;
        let items = ref [] in
        let rec elements () =
          skip_blank ();
          match peek () with
          | Some ')' -> incr pos
          | Some _ ->
              items := value () :: !items;
              elements ()
          | None -> invalid_arg "unbalanced parenthesis"
        in
        elements ();
        List (List.rev !items)
    | Some '"' ->
        (* dune string atoms: we never need their contents, only to skip them *)
        incr pos;
        let start = !pos in
        while !pos < len && source.[!pos] <> '"' do
          if source.[!pos] = '\\' then incr pos;
          incr pos
        done;
        let s = String.sub source start (Int.min (!pos - start) (len - start)) in
        if !pos < len then incr pos;
        Atom s
    | Some _ -> atom ()
    | None -> invalid_arg "expected a value"
  in
  let sexps = ref [] in
  let rec loop () =
    skip_blank ();
    if !pos < len then begin
      sexps := value () :: !sexps;
      loop ()
    end
  in
  loop ();
  List.rev !sexps

let field name = function
  | List (Atom head :: rest) when String.equal head name -> Some rest
  | _ -> None

let atoms l = List.filter_map (function Atom a -> Some a | List _ -> None) l

(* Parse one lib/<dir>/dune into a [lib]; [None] when the file holds no
   library stanza (or an unknown directory, reported separately). *)
let parse_dune ~dir source =
  let stanzas = parse_sexps source in
  let library =
    List.find_map
      (function List (Atom "library" :: body) -> Some body | _ -> None)
      stanzas
  in
  match library with
  | None -> None
  | Some body ->
      let name =
        match List.find_map (field "name") body with
        | Some [ Atom n ] -> n
        | _ -> "dcp_" ^ dir
      in
      let deps =
        match List.find_map (field "libraries") body with
        | Some l -> atoms l
        | None -> []
      in
      let rank = Option.value (rank_of_dir dir) ~default:(-1) in
      Some { dir; lib_name = name; deps; rank }

let load ~root =
  let lib_root = Filename.concat root "lib" in
  let dirs =
    Sys.readdir lib_root |> Array.to_list
    |> List.filter (fun d ->
           String.length d > 0 && d.[0] <> '.' && Sys.is_directory (Filename.concat lib_root d))
    |> List.sort String.compare
  in
  List.filter_map
    (fun dir ->
      let dune = Filename.concat (Filename.concat lib_root dir) "dune" in
      if Sys.file_exists dune then parse_dune ~dir (Discover.read_file dune) else None)
    dirs

(* Dune-graph rules: unknown layers, and edges that do not point strictly
   downward.  An edge between two guardian libraries is reported as
   guardian-isolation; any other non-descending edge is a layer back-edge. *)
let graph_findings libs =
  let finding ~dir ~rule ~token message =
    Finding.v ~rule ~file:(Printf.sprintf "lib/%s/dune" dir) ~line:1 ~col:0 ~context:"dune"
      ~token message
  in
  List.concat_map
    (fun lib ->
      let unknown =
        if lib.rank < 0 then
          [
            finding ~dir:lib.dir ~rule:"layer-dag" ~token:lib.dir
              (Printf.sprintf
                 "library directory %s has no layer; add it to Dcp_lint.Layers.ranks" lib.dir);
          ]
        else []
      in
      let edges =
        List.filter_map
          (fun dep ->
            match dir_of_lib_name dep with
            | None -> None (* external dependency: fmt, unix, ... *)
            | Some dep_dir -> (
                match rank_of_dir dep_dir with
                | None ->
                    Some
                      (finding ~dir:lib.dir ~rule:"layer-dag" ~token:dep
                         (Printf.sprintf "dependency %s has no layer" dep))
                | Some dep_rank when lib.rank >= 0 && dep_rank >= lib.rank ->
                    if is_guardian lib.dir && is_guardian dep_dir then
                      Some
                        (finding ~dir:lib.dir ~rule:"guardian-isolation" ~token:dep
                           (Printf.sprintf
                              "guardian library %s may not depend on guardian library %s; \
                               talk through Port/Message/Rpc instead"
                              lib.lib_name dep))
                    else
                      Some
                        (finding ~dir:lib.dir ~rule:"layer-dag" ~token:dep
                           (Printf.sprintf
                              "back-edge: %s (layer %d) may not depend on %s (layer %d)"
                              lib.lib_name lib.rank dep dep_rank))
                | Some _ -> None))
          lib.deps
      in
      unknown @ edges)
    libs
