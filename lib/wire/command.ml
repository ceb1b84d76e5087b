(* Each argument type carries its own codec steps: a tag byte, then the
   payload Codec writes after that tag, with Codec's checks.  A read that
   meets a tag, count or constructor its type does not admit raises
   [Refused]: the Value path would fail there too, in Vtype.check if not
   in Codec.decode. *)

exception Refused

type 'a ty = {
  vtype : Vtype.t;
  write : Codec.encoder -> 'a -> unit;
  size : Codec.config -> int -> 'a -> int;  (** adds the size to an accumulator *)
  read : Codec.config -> Codec.reader -> 'a;
  value : 'a -> Value.t;
  named : ((Value.t -> (unit, string) result) -> 'a -> (unit, string) result) option;
      (** a walk over the {!any} values inside; [None] when there are none *)
}

let tag_int = Codec.tag (Value.Int 0)
let tag_str = Codec.tag (Value.Str "")
let tag_port = Codec.tag (Value.Portv (Port_name.make ~node:0 ~guardian:0 ~index:0 ~uid:0))
let tag_list = Codec.tag (Value.Listv [])
let tag_tuple = Codec.tag (Value.Tuple [])
let tag_none = Codec.tag (Value.Option None)
let tag_some = Codec.tag (Value.Option (Some Value.Unit))
let expect r tag = if Codec.read_byte r <> tag then raise_notrace Refused

let int =
  {
    vtype = Vtype.Tint;
    write =
      (fun enc i ->
        Codec.add_byte enc tag_int;
        Codec.add_int enc i);
    size = (fun config acc i -> acc + 1 + Codec.int_size config i);
    read =
      (fun config r ->
        expect r tag_int;
        Codec.read_int config r);
    value = Value.int;
    named = None;
  }

let str =
  {
    vtype = Vtype.Tstr;
    write =
      (fun enc s ->
        Codec.add_byte enc tag_str;
        Codec.add_str enc s);
    size = (fun config acc s -> acc + 1 + Codec.str_size config s);
    read =
      (fun config r ->
        expect r tag_str;
        Codec.read_str config r);
    value = Value.str;
    named = None;
  }

let port =
  {
    vtype = Vtype.Tport;
    write =
      (fun enc p ->
        Codec.add_byte enc tag_port;
        Codec.add_port enc p);
    size = (fun _ acc p -> acc + 1 + Codec.port_size p);
    read =
      (fun _ r ->
        expect r tag_port;
        Codec.read_port r);
    value = Value.port;
    named = None;
  }

let any =
  {
    vtype = Vtype.Tany;
    write = Codec.add_value;
    size = (fun config acc v -> acc + Codec.value_size config v);
    read = Codec.read_value;
    value = Fun.id;
    named = Some (fun check v -> check v);
  }

let option elt =
  {
    vtype = Vtype.Toption elt.vtype;
    write =
      (fun enc -> function
        | None -> Codec.add_byte enc tag_none
        | Some x ->
            Codec.add_byte enc tag_some;
            elt.write enc x);
    size = (fun config acc -> function None -> acc + 1 | Some x -> elt.size config (acc + 1) x);
    read =
      (fun config r ->
        let tag = Codec.read_byte r in
        if tag = tag_none then None
        else if tag = tag_some then Some (elt.read config r)
        else raise_notrace Refused);
    value = (fun x -> Value.Option (Option.map elt.value x));
    named =
      Option.map
        (fun named check -> function None -> Ok () | Some x -> named check x)
        elt.named;
  }

(* Lists are read in order, in constant stack, like Codec's. *)
let[@tail_mod_cons] rec read_items elt config r n =
  if n = 0 then []
  else
    let x = elt.read config r in
    x :: read_items elt config r (n - 1)

let rec write_items elt enc = function
  | [] -> ()
  | x :: rest ->
      elt.write enc x;
      write_items elt enc rest

let rec size_items elt config acc = function
  | [] -> acc
  | x :: rest -> size_items elt config (elt.size config acc x) rest

let rec named_items named check = function
  | [] -> Ok ()
  | x :: rest -> (
      match named check x with Ok () -> named_items named check rest | err -> err)

let list elt =
  {
    vtype = Vtype.Tlist elt.vtype;
    write =
      (fun enc items ->
        Codec.add_byte enc tag_list;
        Codec.add_count enc (List.length items);
        write_items elt enc items);
    size =
      (fun config acc items ->
        size_items elt config (acc + 1 + Codec.count_size (List.length items)) items);
    read =
      (fun config r ->
        expect r tag_list;
        read_items elt config r (Codec.read_count r));
    value = (fun items -> Value.Listv (List.map elt.value items));
    named = Option.map named_items elt.named;
  }

(* ---- runs: lists kept as their bytes ----

   A run is what [list elt] writes after its tag and count, kept in place:
   [len] bytes of [body] from [off], holding [count] elements.  A run its
   elements' writer made holds the bytes [list elt] writes for them, made
   under no bounds.  It is copied and sized by its length where no element
   can break the bounds (63-bit ints, and no item longer than
   [max_string], so no string longer), and walked first under any others,
   to raise where [list elt]'s writer raises.  A run as read may hold a
   varint in more bytes than the writer uses, which [list elt] would write
   in fewer, so it is written and sized as its elements.  A run's own
   elements read back under bounds no element can break. *)

type source = Read | Written of int  (** the longest item's length *)
type 'a run = { body : string; off : int; len : int; count : int; source : source }
type 'a item = string
type writer = Codec.encoder

let unbounded = { Codec.int_bits = 63; max_string = max_int; max_message = max_int }
let writer () = Codec.encoder ~config:unbounded ()

let item w elt x =
  Codec.start w;
  elt.write w x;
  match Codec.finish w with Ok s -> s | Error e -> raise (Codec.Codec_error e)

let run_of_items items =
  let body = String.concat "" items in
  let longest = List.fold_left (fun n item -> Int.max n (String.length item)) 0 items in
  { body; off = 0; len = String.length body; count = List.length items; source = Written longest }

let items elt run =
  let r = Codec.reader_at run.body run.off in
  read_items elt unbounded r run.count

let check_written elt (config : Codec.config) longest run =
  if config.int_bits < 63 || longest > config.max_string then
    if not (Codec.skip_typed config (Codec.reader_at run.body run.off) elt.vtype run.count) then
      invalid_arg "Command.run: bytes that are not its elements"

let run elt =
  let as_list = list elt in
  {
    vtype = as_list.vtype;
    write =
      (fun enc run ->
        match run.source with
        | Read -> as_list.write enc (items elt run)
        | Written longest ->
            check_written elt (Codec.encoder_config enc) longest run;
            Codec.add_byte enc tag_list;
            Codec.add_count enc run.count;
            Codec.add_sub enc run.body run.off run.len);
    size =
      (fun config acc run ->
        match run.source with
        | Read -> as_list.size config acc (items elt run)
        | Written longest ->
            check_written elt config longest run;
            acc + 1 + Codec.count_size run.count + run.len);
    read =
      (fun config r ->
        expect r tag_list;
        let count = Codec.read_count r in
        let off = Codec.position r in
        if not (Codec.skip_typed config r elt.vtype count) then raise_notrace Refused;
        { body = Codec.input r; off; len = Codec.position r - off; count; source = Read });
    value = (fun run -> as_list.value (items elt run));
    named = Option.map (fun named check run -> named check (items elt run)) as_list.named;
  }

(* ---- argument lists and tuples ----

   On the wire, a message's arguments are a list: the count, then each
   argument with its tag.  A tuple is the same after its own tag, so an
   argument list of each arity is written, sized and read once, and
   [pair] and [triple] are argument lists behind a tuple tag. *)

type 'a args = {
  arity : int;
  types : Vtype.t list;
  write_args : Codec.encoder -> 'a -> unit;
  size_items : Codec.config -> int -> 'a -> int;  (** the arguments, less their count *)
  read_args : Codec.config -> Codec.reader -> 'a;  (** raises [Refused] on another count *)
  args_values : 'a -> Value.t list;
  args_named : ((Value.t -> (unit, string) result) -> 'a -> (unit, string) result) option;
}

let expect_count r n = if Codec.read_count r <> n then raise_notrace Refused

(* The {!any} walk of several components, left to right; [None] when no
   component holds an {!any}. *)
let walk named check x = match named with None -> Ok () | Some w -> w check x
let ( >>> ) r f = match r with Ok () -> f () | err -> err

let any_named holds walk_all = if List.exists Fun.id holds then Some walk_all else None

let args1 a =
  {
    arity = 1;
    types = [ a.vtype ];
    write_args =
      (fun enc x ->
        Codec.add_count enc 1;
        a.write enc x);
    size_items = (fun config acc x -> a.size config acc x);
    read_args =
      (fun config r ->
        expect_count r 1;
        a.read config r);
    args_values = (fun x -> [ a.value x ]);
    args_named = a.named;
  }

let args2 a b =
  {
    arity = 2;
    types = [ a.vtype; b.vtype ];
    write_args =
      (fun enc (x, y) ->
        Codec.add_count enc 2;
        a.write enc x;
        b.write enc y);
    size_items = (fun config acc (x, y) -> b.size config (a.size config acc x) y);
    read_args =
      (fun config r ->
        expect_count r 2;
        let x = a.read config r in
        let y = b.read config r in
        (x, y));
    args_values = (fun (x, y) -> [ a.value x; b.value y ]);
    args_named =
      any_named [ Option.is_some a.named; Option.is_some b.named ] (fun check (x, y) ->
          walk a.named check x >>> fun () -> walk b.named check y);
  }

let args3 a b c =
  {
    arity = 3;
    types = [ a.vtype; b.vtype; c.vtype ];
    write_args =
      (fun enc (x, y, z) ->
        Codec.add_count enc 3;
        a.write enc x;
        b.write enc y;
        c.write enc z);
    size_items =
      (fun config acc (x, y, z) -> c.size config (b.size config (a.size config acc x) y) z);
    read_args =
      (fun config r ->
        expect_count r 3;
        let x = a.read config r in
        let y = b.read config r in
        let z = c.read config r in
        (x, y, z));
    args_values = (fun (x, y, z) -> [ a.value x; b.value y; c.value z ]);
    args_named =
      any_named
        [ Option.is_some a.named; Option.is_some b.named; Option.is_some c.named ]
        (fun check (x, y, z) ->
          walk a.named check x >>> fun () ->
          walk b.named check y >>> fun () -> walk c.named check z);
  }

let args5 a b c d e =
  {
    arity = 5;
    types = [ a.vtype; b.vtype; c.vtype; d.vtype; e.vtype ];
    write_args =
      (fun enc (x1, x2, x3, x4, x5) ->
        Codec.add_count enc 5;
        a.write enc x1;
        b.write enc x2;
        c.write enc x3;
        d.write enc x4;
        e.write enc x5);
    size_items =
      (fun config acc (x1, x2, x3, x4, x5) ->
        let acc = b.size config (a.size config acc x1) x2 in
        e.size config (d.size config (c.size config acc x3) x4) x5);
    read_args =
      (fun config r ->
        expect_count r 5;
        let x1 = a.read config r in
        let x2 = b.read config r in
        let x3 = c.read config r in
        let x4 = d.read config r in
        let x5 = e.read config r in
        (x1, x2, x3, x4, x5));
    args_values =
      (fun (x1, x2, x3, x4, x5) -> [ a.value x1; b.value x2; c.value x3; d.value x4; e.value x5 ]);
    args_named =
      any_named
        [
          Option.is_some a.named;
          Option.is_some b.named;
          Option.is_some c.named;
          Option.is_some d.named;
          Option.is_some e.named;
        ]
        (fun check (x1, x2, x3, x4, x5) ->
          walk a.named check x1 >>> fun () ->
          walk b.named check x2 >>> fun () ->
          walk c.named check x3 >>> fun () ->
          walk d.named check x4 >>> fun () -> walk e.named check x5);
  }

let tuple args =
  {
    vtype = Vtype.Ttuple args.types;
    write =
      (fun enc x ->
        Codec.add_byte enc tag_tuple;
        args.write_args enc x);
    size = (fun config acc x -> args.size_items config (acc + 1 + Codec.count_size args.arity) x);
    read =
      (fun config r ->
        expect r tag_tuple;
        args.read_args config r);
    value = (fun x -> Value.Tuple (args.args_values x));
    named = args.args_named;
  }

let pair a b = tuple (args2 a b)
let triple a b c = tuple (args3 a b c)
let vtype ty = ty.vtype

let size_of ?(config = Codec.default_config) ty x =
  match ty.size config 0 x with
  | n -> if n > config.max_message then Error (Codec.Message_too_long n) else Ok n
  | exception Codec.Codec_error e -> Error e

(* ---- commands ---- *)

type 'a t = { name : string; args : 'a args; signature : Vtype.signature; id : 'a Type.Id.t }

let make ?replies name args =
  { name; args; signature = Vtype.signature ?replies name args.types; id = Type.Id.make () }

let name c = c.name
let failure = make "failure" (args1 str)
let values c x = c.args.args_values x

(* The command as the value [Tuple (Str name :: args)]: a tuple tag, its
   count, the name with its tag, then the arguments. *)
let encoded_size ?(config = Codec.default_config) c x =
  match
    let head = 1 + Codec.count_size (c.args.arity + 1) + 1 + Codec.str_size config c.name in
    c.args.size_items config head x
  with
  | n -> if n > config.max_message then Error (Codec.Message_too_long n) else Ok n
  | exception Codec.Codec_error e -> Error e

let write_args enc c x = c.args.write_args enc x
let check_named c check x = walk c.args.args_named check x

type cmd = Cmd : 'a t -> cmd
type decl = cmd list

let decl cmds =
  let names = List.map (fun (Cmd c) -> c.name) cmds in
  List.iter
    (fun reserved ->
      if List.mem reserved names then
        invalid_arg (Printf.sprintf "Command.decl: %S is reserved" reserved))
    [ failure.name; Vtype.wildcard.Vtype.command ];
  if List.length (List.sort_uniq String.compare names) <> List.length names then
    invalid_arg "Command.decl: two commands of one name";
  cmds @ [ Cmd failure ]

let port_type d =
  List.filter_map
    (fun (Cmd c) -> if String.equal c.name failure.name then None else Some c.signature)
    d

let reply_equal (a : Vtype.reply) (b : Vtype.reply) =
  String.equal a.reply_command b.reply_command && List.equal Vtype.equal a.reply_args b.reply_args

let signature_equal (a : Vtype.signature) (b : Vtype.signature) =
  String.equal a.command b.command
  && List.equal Vtype.equal a.args b.args
  && List.equal reply_equal a.replies b.replies

let declares d pt = List.equal signature_equal (port_type d) pt

type payload = Payload : 'a t * 'a -> payload

let rec find d name =
  match d with
  | [] -> None
  | (Cmd c as cmd) :: rest -> if String.equal c.name name then Some cmd else find rest name

let read_args config d name r =
  match find d name with
  | None -> None
  | Some (Cmd c) -> (
      match c.args.read_args config r with
      | x -> Some (Payload (c, x))
      | exception Refused -> None)

let cast (type a) (c : a t) (Payload (c', x)) : a option =
  match Type.Id.provably_equal c.id c'.id with Some Type.Equal -> Some x | None -> None

let payload_values (Payload (c, x)) = values c x
