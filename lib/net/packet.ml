type fragment = {
  src : int;
  dst : int;
  msg_id : int;
  index : int;
  count : int;
  body : string;
  pos : int;
  len : int;
  crc : int;
}

let header_overhead = 24
let wire_size f = header_overhead + f.len

(* Fragments are slices of the body, CRC-stamped in place: nothing is
   copied. *)
let[@tail_mod_cons] rec slices ~src ~dst ~msg_id ~mtu ~count body index =
  if index = count then []
  else
    let pos = index * mtu in
    let len = Int.min mtu (String.length body - pos) in
    let crc = Crc32.digest_substring body ~pos ~len in
    { src; dst; msg_id; index; count; body; pos; len; crc }
    :: slices ~src ~dst ~msg_id ~mtu ~count body (index + 1)

let fragment ~src ~dst ~msg_id ~mtu body =
  if mtu <= 0 then invalid_arg "Packet.fragment: mtu must be positive";
  let len = String.length body in
  let count = if len = 0 then 1 else (len + mtu - 1) / mtu in
  slices ~src ~dst ~msg_id ~mtu ~count body 0

let intact f = f.crc = Crc32.digest_substring f.body ~pos:f.pos ~len:f.len

(* The damaged fragment is a copy of its own slice; the body it came from
   is shared with the intact copies in flight. *)
let corrupt rng f =
  if f.len = 0 then { f with crc = f.crc lxor 0xffff_ffff }
  else begin
    let byte_index = Dcp_rng.Rng.int rng f.len in
    let bit = Dcp_rng.Rng.int rng 8 in
    let b = Bytes.create f.len in
    Bytes.blit_string f.body f.pos b 0 f.len;
    let c = Char.code (Bytes.get b byte_index) in
    Bytes.set b byte_index (Char.chr (c lxor (1 lsl bit)));
    { f with body = Bytes.unsafe_to_string b; pos = 0 }
  end

(* The bytes of one fragment as a string of their own: its body itself
   when the slice is all of it. *)
let payload f =
  if f.pos = 0 && f.len = String.length f.body then f.body else String.sub f.body f.pos f.len

module Reassembly = struct
  type partial = {
    count : int;
    slots : fragment array;  (** [vacant] until that fragment arrives *)
    mutable filled : int;
    first_seen : Dcp_sim.Clock.time;
  }

  type t = { table : (int * int, partial) Hashtbl.t }

  let vacant =
    { src = 0; dst = 0; msg_id = 0; index = 0; count = 0; body = ""; pos = 0; len = 0; crc = 0 }

  let create () = { table = Hashtbl.create 64 }

  (* Do the slots, in order from [i], continue one string from [next] to
     its end? *)
  let rec contiguous slots body i next =
    if i = Array.length slots then next = String.length body
    else
      let f = slots.(i) in
      f.body == body && f.pos = next && contiguous slots body (i + 1) (next + f.len)

  (* The whole message: the sent body itself when the fragments are all
     slices of it, otherwise one blit of the slices. *)
  let assemble slots =
    let body = slots.(0).body in
    if contiguous slots body 0 0 then body
    else begin
      let total = Array.fold_left (fun acc f -> acc + f.len) 0 slots in
      let out = Bytes.create total in
      ignore
        (Array.fold_left
           (fun at f ->
             Bytes.blit_string f.body f.pos out at f.len;
             at + f.len)
           0 slots);
      Bytes.unsafe_to_string out
    end

  let fold_in t ~key partial (f : fragment) =
    if partial.slots.(f.index) == vacant then begin
      partial.slots.(f.index) <- f;
      partial.filled <- partial.filled + 1
    end;
    if partial.filled = partial.count then begin
      Hashtbl.remove t.table key;
      Some (f.src, assemble partial.slots)
    end
    else None

  let offer t ~now (f : fragment) =
    if f.count <= 0 || f.index < 0 || f.index >= f.count then None
    else if f.count = 1 then
      (* A whole message in one fragment needs no table, unless a partial
         under its key claims another count. *)
      if Hashtbl.length t.table > 0 && Hashtbl.mem t.table (f.src, f.msg_id) then None
      else Some (f.src, payload f)
    else
      let key = (f.src, f.msg_id) in
      match Hashtbl.find_opt t.table key with
      | Some partial when partial.count <> f.count ->
          (* a header whose count disagrees with the partial's geometry is
             corruption the CRC cannot see (it covers only the payload);
             folding it in could truncate or misassemble the message *)
          None
      | Some partial -> fold_in t ~key partial f
      | None ->
          let partial =
            { count = f.count; slots = Array.make f.count vacant; filled = 0; first_seen = now }
          in
          Hashtbl.add t.table key partial;
          fold_in t ~key partial f

  let drop_older_than t ~before =
    let stale =
      Hashtbl.fold
        (fun key p acc -> if Dcp_sim.Clock.compare p.first_seen before < 0 then key :: acc else acc)
        t.table []
    in
    List.iter (Hashtbl.remove t.table) stale;
    List.length stale
end
