(* The machine-readable lint report (`dcp.lint.report/v1`), built as a
   [Json.t] document. *)

open Dcp_json.Json

let schema = "dcp.lint.report/v1"

let of_finding (f : Finding.t) =
  Obj
    [
      ("rule", Str f.rule);
      ("file", Str f.file);
      ("line", Num (float_of_int f.line));
      ("col", Num (float_of_int f.col));
      ("context", Str f.context);
      ("token", Str f.token);
      ("message", Str f.message);
      ("key", Str (Finding.key f));
      ("baselined", Bool f.baselined);
    ]

let of_layer (l : Layers.lib) =
  Obj
    [
      ("lib", Str l.dir);
      ("name", Str l.lib_name);
      ("rank", Num (float_of_int l.rank));
      ("deps", Arr (List.map (fun d -> Str d) l.deps));
    ]

let summary ~rules ~findings ~stale_baseline extra =
  let count p = Num (float_of_int (List.length (List.filter p findings))) in
  let of_rule rule f = String.equal f.Finding.rule rule in
  Obj
    ([
       ("total", count (fun _ -> true));
       ("active", count (fun f -> not f.Finding.baselined));
       ("baselined", count (fun f -> f.Finding.baselined));
       ("stale_baseline", Num (float_of_int (List.length stale_baseline)));
     ]
    @ extra
    @ [
        ( "rules",
          Obj
            (List.map
               (fun (rule, family) ->
                 ( rule,
                   Obj
                     [
                       ("family", Str (Finding.family_name family));
                       ("total", count (of_rule rule));
                       ("active", count (fun f -> of_rule rule f && not f.Finding.baselined));
                     ] ))
               rules) );
      ])

let build ~root ~files_scanned ~layers ~findings ~stale_baseline =
  let sorted_layers =
    List.sort
      (fun (a : Layers.lib) b ->
        let c = Int.compare a.rank b.rank in
        if c <> 0 then c else String.compare a.dir b.dir)
      layers
  in
  Obj
    [
      ("schema", Str schema);
      ("root", Str root);
      ("files_scanned", Num (float_of_int files_scanned));
      ("layers", Arr (List.map of_layer sorted_layers));
      ("findings", Arr (List.map of_finding findings));
      ("stale_baseline", Arr (List.map (fun k -> Str k) stale_baseline));
      ("summary", summary ~rules:Finding.rules ~findings ~stale_baseline []);
    ]
