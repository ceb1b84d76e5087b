(* The machine-readable lint report (`dcp.lint.report/v2`), built as a
   [Json.t] document.  Everything is emitted in deterministic order: layers
   by (rank, dir), units as discovered (sorted paths), sends by line,
   handles by line, flow edges by (src, dst), findings by Finding.order. *)

open Proto_extract
open Dcp_json.Json

let schema = "dcp.lint.report/v2"

let num n = Num (float_of_int n)

let of_finding (f : Finding.t) =
  Obj
    [
      ("rule", Str f.rule);
      ("file", Str f.file);
      ("line", num f.line);
      ("col", num f.col);
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
      ("rank", num l.rank);
      ("deps", Arr (List.map (fun d -> Str d) l.deps));
    ]

let of_names = function
  | Dynamic -> Str "dynamic"
  | Known s -> Arr (List.map (fun n -> Str n) (SSet.elements s))

let of_send (sd : Proto_summary.send) =
  Obj
    [
      ("line", num sd.sd_line);
      ("context", Str sd.sd_context);
      ("via", Str sd.sd_via);
      ("names", of_names sd.sd_names);
    ]

let of_handle (h : handle) =
  Obj
    [
      ("name", Str h.h_name);
      ("kind", Str (kind_name h.h_kind));
      ("line", num h.h_line);
      ("context", Str h.h_context);
      ("obligated", Bool h.h_obligated);
    ]

(* The send sites whose command names the analysis cannot resolve: its
   blind spots, counted per unit and in the summary. *)
let dynamic_sends sends =
  List.length
    (List.filter
       (fun (sd : Proto_summary.send) ->
         match sd.sd_names with Dynamic -> true | Known _ -> false)
       sends)

let of_unit ({ us_unit = u; us_sends } : Proto_flow.unit_sends) =
  Obj
    [
      ("id", Str u.u_id);
      ("path", Str u.u_path);
      ("module", Str u.u_module);
      ("lib", match u.u_lib with Some l -> Str l | None -> Null);
      ("parsed", Bool (Result.is_ok u.u_structure));
      ( "sends",
        Arr
          (List.map of_send
             (List.sort
                (fun (a : Proto_summary.send) b -> Int.compare a.sd_line b.sd_line)
                us_sends)) );
      ("dynamic_sends", num (dynamic_sends us_sends));
      ( "handles",
        Arr
          (List.map of_handle
             (List.sort (fun (a : handle) b -> Int.compare a.h_line b.h_line) u.u_handles)) );
    ]

let of_edge (e : Proto_flow.edge) =
  Obj
    [
      ("src", Str e.e_src);
      ("dst", Str e.e_dst);
      ("msgs", Arr (List.map (fun n -> Str n) (SSet.elements e.e_msgs)));
    ]

let of_exports ({ declared; unused; test_only } : Proto_exports.counts) =
  Obj [ ("declared", num declared); ("unused", num unused); ("test_only", num test_only) ]

let summary ~units ~findings ~stale_baseline ~flow =
  let count p = num (List.length (List.filter p findings)) in
  let of_rule rule f = String.equal f.Finding.rule rule in
  Obj
    [
      ("total", count (fun _ -> true));
      ("active", count (fun f -> not f.Finding.baselined));
      ("baselined", count (fun f -> f.Finding.baselined));
      ("stale_baseline", num (List.length stale_baseline));
      ("flow_edges", num (List.length flow));
      ( "dynamic_sends",
        num
          (List.fold_left
             (fun acc (us : Proto_flow.unit_sends) -> acc + dynamic_sends us.us_sends)
             0 units) );
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
             Finding.rules) );
    ]

let build ~root ~layers ~units ~flow ~exports ~findings ~stale_baseline =
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
      ("files_scanned", num (List.length units));
      ("layers", Arr (List.map of_layer sorted_layers));
      ("units", Arr (List.map of_unit units));
      ("flow", Arr (List.map of_edge flow));
      ("exports", of_exports exports);
      ("findings", Arr (List.map of_finding findings));
      ("stale_baseline", Arr (List.map (fun k -> Str k) stale_baseline));
      ("summary", summary ~units ~findings ~stale_baseline ~flow);
    ]
