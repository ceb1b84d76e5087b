(* Log records are "S<klen>:<key><value>" for set and "R<key>" for remove;
   a checkpoint is the whole table behind one CRC frame (see Checkpoint).
   All framing is length-prefixed so keys and values may contain any
   byte. *)

type ckpt = { upto : Wal.lsn; mutable blob : string }

type t = {
  mutable table : (string, string) Hashtbl.t;
  mutable checkpoints : ckpt list;  (** newest first; at most two generations *)
  wal : Wal.t;
  mutable crashed : bool;
  disk : Disk.t option;
  mutable on_stall : int -> unit;
  checkpoint_every : int option;
  mutable since_ckpt : int;
  mutable pending_dropped : int;  (** un-flushed records the last crash destroyed *)
}

let create ?disk ?checkpoint_every () =
  {
    table = Hashtbl.create 64;
    checkpoints = [];
    wal = Wal.create ();
    crashed = false;
    disk = Option.map (fun (spec, rng) -> Disk.create spec rng) disk;
    on_stall = ignore;
    checkpoint_every;
    since_ckpt = 0;
    pending_dropped = 0;
  }

let set_stall_handler t f = t.on_stall <- f

(* One record, "<op><klen>:<key><rest>", in one allocation of its size. *)
let record op ~key rest =
  let klen = String.length key and rlen = String.length rest in
  let w = Decimal.width klen in
  let b = Bytes.create (2 + w + klen + rlen) in
  Bytes.unsafe_set b 0 op;
  Decimal.put b 1 klen;
  Bytes.unsafe_set b (1 + w) ':';
  Bytes.blit_string key 0 b (2 + w) klen;
  Bytes.blit_string rest 0 b (2 + w + klen) rlen;
  Bytes.unsafe_to_string b

let encode_set ~key value = record 'S' ~key value
let encode_remove ~key = record 'R' ~key ""

let decode record =
  let fail () = invalid_arg "Store: malformed log record" in
  if String.length record < 2 then fail ();
  let op = record.[0] in
  match String.index_opt record ':' with
  | None -> fail ()
  | Some colon ->
      let klen = int_of_string (String.sub record 1 (colon - 1)) in
      let key = String.sub record (colon + 1) klen in
      let rest_pos = colon + 1 + klen in
      (match op with
      | 'S' -> `Set (key, String.sub record rest_pos (String.length record - rest_pos))
      | 'R' -> `Remove key
      | _ -> fail ())

let ensure_live t = if t.crashed then invalid_arg "Store: node is crashed; recover first"

let sorted_pairs table =
  List.sort
    (fun (k1, _) (k2, _) -> String.compare k1 k2)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) table [])

let checkpoint t =
  ensure_live t;
  (* Standard WAL discipline: fsync the log before the checkpoint covers
     it, so a record can never exist *only* inside a checkpoint frame. *)
  Wal.flush t.wal;
  let upto = Wal.next_lsn t.wal in
  let blob = Checkpoint.make ~upto (sorted_pairs t.table) in
  let retained = match t.checkpoints with [] -> [] | newest :: _ -> [ newest ] in
  t.checkpoints <- { upto; blob } :: retained;
  (* Truncate only what the *older* retained generation no longer needs: if
     the newest checkpoint rots at rest, its full suffix is still on the
     log behind the previous generation.  The first generation therefore
     truncates nothing — until two checkpoints exist, the log alone must be
     able to rebuild the store. *)
  (match retained with
  | [] -> ()
  | older :: _ -> Wal.truncate_prefix t.wal ~upto:older.upto);
  t.since_ckpt <- 0

let stall t =
  match t.disk with
  | None -> ()
  | Some d -> ( match Disk.draw_stall d with None -> () | Some ms -> t.on_stall ms)

let bump t =
  t.since_ckpt <- t.since_ckpt + 1;
  match t.checkpoint_every with
  | Some n when t.since_ckpt >= n -> checkpoint t
  | _ -> ()

let set t ~key value =
  ensure_live t;
  (* The stall precedes the append: a node killed mid-stall never wrote. *)
  stall t;
  ignore (Wal.append t.wal (encode_set ~key value));
  Hashtbl.replace t.table key value;
  bump t

let remove t ~key =
  ensure_live t;
  stall t;
  ignore (Wal.append t.wal (encode_remove ~key));
  Hashtbl.remove t.table key;
  bump t

let get t ~key =
  ensure_live t;
  Hashtbl.find_opt t.table key

let mem t ~key =
  ensure_live t;
  Hashtbl.mem t.table key

let size t =
  ensure_live t;
  Hashtbl.length t.table

let fold t ~init ~f =
  ensure_live t;
  Hashtbl.fold (fun key value acc -> f ~key value acc) t.table init

let to_alist t =
  ensure_live t;
  sorted_pairs t.table

let flush t = Wal.flush t.wal

let log_length t = Wal.length t.wal

let checkpoint_count t = List.length t.checkpoints

let rot_blob d blob =
  let b = Bytes.of_string blob in
  let pos = Disk.draw_byte d ~len:(Bytes.length b) in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
  Bytes.to_string b

let crash t =
  (match t.disk with
  | None -> ()
  | Some d ->
      (* Un-flushed suffix: lost wholesale, or the in-flight record tears. *)
      if Wal.unflushed t.wal > 0 then begin
        if Disk.draw_drop d then t.pending_dropped <- t.pending_dropped + Wal.drop_unflushed t.wal
        else if Disk.draw_tear d then ignore (Wal.tear_unflushed t.wal)
      end;
      (* Bit rot over everything flushed: log records, then checkpoint
         frames, all equally likely victims. *)
      let nrec = Wal.flushed_count t.wal in
      let nckpt = List.length t.checkpoints in
      (match Disk.draw_rot d ~targets:(nrec + nckpt) with
      | None -> ()
      | Some (victim, sector) ->
          if victim < nrec then Wal.rot_record t.wal d ~index:victim ~sector
          else begin
            let c = List.nth t.checkpoints (victim - nrec) in
            c.blob <- rot_blob d c.blob
          end));
  t.table <- Hashtbl.create 64;
  t.crashed <- true

type recover_report = {
  replayed : int;
  salvaged : int;
  quarantined : int;
  checkpoint_fallbacks : int;
  dropped_unflushed : int;
}

let zero_report =
  { replayed = 0; salvaged = 0; quarantined = 0; checkpoint_fallbacks = 0; dropped_unflushed = 0 }

let recover_report t =
  if not t.crashed then zero_report
  else begin
    t.crashed <- false;
    (* Make quarantine physical first: salvage rot from mirrors, drop what
       is beyond repair, so replay below sees an intact log. *)
    let scrub = Wal.scrub t.wal in
    (* Whatever is still on the log survived the crash, so it is on disk by
       definition: a later crash must not treat it as an un-flushed tail. *)
    Wal.flush t.wal;
    (* Each kept checkpoint is read once: the newest intact one's pairs
       load the table. *)
    let fallbacks = ref 0 in
    let intact =
      List.filter_map
        (fun c ->
          match Checkpoint.restore c.blob with
          | Some (_, pairs) -> Some (c, pairs)
          | None ->
              incr fallbacks;
              None)
        t.checkpoints
    in
    t.checkpoints <- List.map fst intact;
    t.table <- Hashtbl.create 64;
    let start =
      match intact with
      | [] -> Wal.first_lsn t.wal
      | (c, pairs) :: _ ->
          List.iter (fun (k, v) -> Hashtbl.replace t.table k v) pairs;
          c.upto
    in
    let replayed = ref 0 in
    Wal.replay_from t.wal ~lsn:start (fun _lsn record ->
        incr replayed;
        match decode record with
        | `Set (key, value) -> Hashtbl.replace t.table key value
        | `Remove key -> Hashtbl.remove t.table key);
    let dropped = t.pending_dropped in
    t.pending_dropped <- 0;
    (* Damage consumed some redundancy: write a fresh generation now so
       the next crash faces two intact checkpoints again. *)
    if !fallbacks > 0 || scrub.salvaged > 0 || scrub.quarantined > 0 then checkpoint t;
    {
      replayed = !replayed;
      salvaged = scrub.salvaged;
      quarantined = scrub.quarantined;
      checkpoint_fallbacks = !fallbacks;
      dropped_unflushed = dropped;
    }
  end

let recover t = (recover_report t).replayed

let is_crashed t = t.crashed

let durability_check t =
  ensure_live t;
  let scratch = Hashtbl.create 64 in
  let start =
    (* Walk newest→oldest like recovery would; a live store normally has an
       intact newest generation, but stay total regardless. *)
    let rec pick = function
      | [] -> Wal.first_lsn t.wal
      | c :: rest -> (
          match Checkpoint.restore c.blob with
          | Some (_, pairs) ->
              List.iter (fun (k, v) -> Hashtbl.replace scratch k v) pairs;
              c.upto
          | None -> pick rest)
    in
    pick t.checkpoints
  in
  Wal.replay_from t.wal ~lsn:start (fun _lsn record ->
      match decode record with
      | `Set (key, value) -> Hashtbl.replace scratch key value
      | `Remove key -> Hashtbl.remove scratch key);
  if Hashtbl.length scratch <> Hashtbl.length t.table then
    Error
      (Printf.sprintf "durable state holds %d keys, volatile table %d" (Hashtbl.length scratch)
         (Hashtbl.length t.table))
  else
    List.fold_left
      (fun acc (key, value) ->
        match acc with
        | Error _ -> acc
        | Ok () -> (
            match Hashtbl.find_opt scratch key with
            | Some v when String.equal v value -> Ok ()
            | Some _ -> Error (Printf.sprintf "key %S differs between log and table" key)
            | None -> Error (Printf.sprintf "key %S is volatile-only (never logged?)" key)))
      (Ok ()) (sorted_pairs t.table)

let damage_newest_checkpoint t =
  match t.checkpoints with
  | [] -> false
  | c :: _ ->
      let b = Bytes.of_string c.blob in
      let pos = Bytes.length b / 2 in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
      c.blob <- Bytes.to_string b;
      true
