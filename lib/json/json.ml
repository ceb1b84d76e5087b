(* JSON for the committed artifacts: one renderer, one parser, no external
   dependencies.  The paper's rule for a transmittable type — one external
   rep, one encode/decode pair — applied to the repo's own files. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ---- rendering ---- *)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* The fewest significant digits that read back as [f]: 17 always do. *)
let render_num f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let rec shortest p =
      let s = Printf.sprintf "%.*g" p f in
      if p >= 17 || Float.equal (float_of_string s) f then s else shortest (p + 1)
    in
    shortest 1

let is_scalar = function Arr _ | Obj _ -> false | Null | Bool _ | Num _ | Str _ -> true

let render v =
  let b = Buffer.create 4096 in
  let rec go indent = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (if x then "true" else "false")
    | Num f -> Buffer.add_string b (render_num f)
    | Str s -> Buffer.add_string b (Printf.sprintf "\"%s\"" (escape s))
    | Arr items -> container indent '[' ']' (List.map (fun v -> (None, v)) items)
    | Obj fields -> container indent '{' '}' (List.map (fun (k, v) -> (Some k, v)) fields)
  and container indent opening closing members =
    let flat = List.for_all (fun (_, v) -> is_scalar v) members in
    let break indent =
      if flat then Buffer.add_char b ' '
      else begin
        Buffer.add_char b '\n';
        Buffer.add_string b (String.make indent ' ')
      end
    in
    Buffer.add_char b opening;
    List.iteri
      (fun i (key, v) ->
        if i > 0 then Buffer.add_char b ',';
        break (indent + 2);
        Option.iter (fun k -> Buffer.add_string b (Printf.sprintf "\"%s\": " (escape k))) key;
        go (indent + 2) v)
      members;
    if members <> [] then break indent;
    Buffer.add_char b closing
  in
  go 0 v;
  Buffer.add_char b '\n';
  Buffer.contents b

let to_file path v = Out_channel.with_open_text path (fun oc -> output_string oc (render v))

(* ---- parsing ---- *)

exception Parse_error of string

let parse (s : string) : t =
  let pos = ref 0 in
  let len = String.length s in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < len then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    if !pos + String.length word <= len && String.equal (String.sub s !pos (String.length word)) word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail "unknown literal"
  in
  let hex_digit () =
    let d =
      match peek () with
      | Some ('0' .. '9' as c) -> Char.code c - Char.code '0'
      | Some ('a' .. 'f' as c) -> Char.code c - Char.code 'a' + 10
      | Some ('A' .. 'F' as c) -> Char.code c - Char.code 'A' + 10
      | _ -> fail "expected four hex digits after \\u"
    in
    advance ();
    d
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec loop () =
      if !pos >= len then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      if c = '"' then Buffer.contents b
      else if c = '\\' then begin
        if !pos >= len then fail "unterminated escape";
        let e = s.[!pos] in
        advance ();
        (match e with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
            let code = ref 0 in
            for _ = 1 to 4 do
              code := (!code * 16) + hex_digit ()
            done;
            Buffer.add_char b (if !code < 128 then Char.chr !code else '?')
        | _ -> fail "unknown escape");
        loop ()
      end
      else begin
        Buffer.add_char b c;
        loop ()
      end
    in
    loop ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    in
    while !pos < len && is_num_char s.[!pos] do
      advance ()
    done;
    if !pos = start then fail "expected a number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "malformed number"
  in
  (* The opening bracket is under [pos]; comma-separated items up to [close]. *)
  let sequence close item =
    advance ();
    skip_ws ();
    if peek () = Some close then begin
      advance ();
      []
    end
    else
      let rec loop acc =
        let acc = item () :: acc in
        skip_ws ();
        match peek () with
        | Some ',' ->
            advance ();
            loop acc
        | Some c when c = close ->
            advance ();
            List.rev acc
        | _ -> fail (Printf.sprintf "expected ',' or '%c'" close)
      in
      loop []
  in
  let rec field () =
    skip_ws ();
    let key = parse_string () in
    skip_ws ();
    expect ':';
    (key, parse_value ())
  and parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> Str (parse_string ())
    | Some '{' -> Obj (sequence '}' field)
    | Some '[' -> Arr (sequence ']' parse_value)
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some _ -> parse_number ()
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> len then fail "trailing bytes";
  v

let member name = function Obj fields -> List.assoc_opt name fields | _ -> None
